// The frame walk: every sort-middle frame is timed by one walk over its
// (triangle, node) work items in submission order, the order in which the
// paper's distributor pushes them into the nodes' triangle FIFOs. The walk
// has two settings: where the items come from, and which clock times them.
//
// A frame timed once streams. With no raster artifact attached, the walk
// routes, rasterizes and demultiplexes each triangle when it reaches it
// (demux, the step the artifact builder shares), resolves its texture and
// level of detail once, and times every destination at once on its node's
// engine; nothing of the triangle outlives it. A frame timed many times
// comes from the attached artifact's stored frame, each item timed from its
// miss stream, its stored footprints or, in a spans-only artifact, live
// (Machine.process).
//
// Every item goes to a clock. The FIFO-coupled clock (coupledClock) times
// the whole frame on one worker. When the dispatch rule (decoupled,
// parallel.go) finds that no FIFO can fill, each of the machine's W node
// workers walks the frame on a decoupled clock of its own (decoupledClock)
// and times only its nodes, worker k the nodes p with p mod W = k. A
// streamed triangle that reaches none of a worker's nodes is not
// rasterized by that worker; one routed to nodes of two workers is
// rasterized by both. The rule reads each node's routed triangle count:
// the stored frame's, or a route-only pass over the streamed one (counts).
//
// Equivalence contract: a streamed frame gives byte-identical results to
// the same frame's stored work list, on either clock — the same demux step
// produces the same segments, each node sees its work items in submission
// order, and each item is timed from the same arrival. Only the memory
// differs: the stream holds one triangle's segments per worker, a stored
// frame every destination's.
package core

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/trace"
)

// clock times one worker's share of a frame's work items, each through push
// and then finish: push returns node p's next item's index among p's this
// frame and the cycle p pops it, and finish records that the item, popped
// at pop, completes at done.
type clock interface {
	push(p int) (k int, pop float64)
	finish(p int, pop, done float64)
}

// walk times frame f's work items of the nodes p with mine[p] set on clock
// c, in submission order: the attached artifact's stored items, or with
// none attached the items of each triangle as it is demultiplexed.
func (m *Machine) walk(ctx context.Context, f *trace.Scene, c clock, mine []bool) error {
	var stored []ArtifactTriangle
	n := len(f.Triangles)
	if m.artifact != nil {
		stored = m.artifact.Frames[0].Tris
		n = len(stored)
	}
	w := newDemuxScratch(m.cfg.Procs)
	var work engine.TriangleWork
	for i := range n {
		if i%ctxPollTriangles == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if stored != nil {
			for j := range stored[i].Dests {
				if d := &stored[i].Dests[j]; mine[d.Node] {
					q, pop := c.push(d.Node)
					c.finish(d.Node, pop, m.process(d.Node, q, d, pop))
				}
			}
			continue
		}
		t := &f.Triangles[i]
		dests := w.routeTriangle(m.dist, t)
		if !slices.ContainsFunc(dests, func(p int) bool { return mine[p] }) {
			continue
		}
		w.demux(m.dist, m.rast, f.Screen, t, dests)
		work = boundWork(m.mgr, t)
		for _, p := range dests {
			if mine[p] {
				work.Segments = w.spans[p]
				_, pop := c.push(p)
				c.finish(p, pop, m.engines[p].ProcessTriangle(pop, &work))
			}
		}
	}
	return nil
}

// counts returns each node's routed triangle count in frame f: the stored
// frame's, or with no artifact attached a route-only pass over f.
func (m *Machine) counts(f *trace.Scene) []int {
	if m.artifact != nil {
		return m.artifact.Frames[0].counts
	}
	counts := make([]int, m.cfg.Procs)
	w := newDemuxScratch(m.cfg.Procs)
	for i := range f.Triangles {
		for _, p := range w.routeTriangle(m.dist, &f.Triangles[i]) {
			counts[p]++
		}
	}
	return counts
}

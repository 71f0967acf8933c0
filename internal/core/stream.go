// The frame stream: a frame timed once is never stored. The paper's
// distributor routes each rasterized triangle straight into the nodes'
// triangle FIFOs, and a sort-middle machine with no raster artifact
// attached times its frames the same way, in two passes over the frame's
// triangles:
//
//   - a route-only pass counts each node's routed triangles, which is all
//     the dispatch rule (decoupled) reads and all the coupled recurrence
//     sizes its FIFO rings from;
//   - a timing pass takes one triangle at a time: it routes it,
//     rasterizes and demultiplexes it (demux, the step the artifact
//     builder shares), resolves its texture and level of detail once, and
//     times every destination at once on its node's engine.
//
// In the FIFO-coupled regime the timing pass runs on one worker, through
// the coupled recurrence (coupledClock) in submission order. In the
// decoupled regime each of the machine's W node workers times its own
// nodes, worker k the nodes p with p mod W = k, and rasterizes only the
// triangles routed to them; a triangle routed to nodes of two workers is
// rasterized by both.
//
// Equivalence contract: a streamed frame gives byte-identical results to
// the same frame built into a work list and replayed on either driver —
// the same demux step produces the same segments, each node sees its work
// items in submission order, and each item is timed by
// engine.Engine.ProcessTriangle from the same arrival. Only the memory
// differs: the stream holds one triangle's segments per worker, a stored
// frame every destination's.
package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/trace"
)

// streamFrame times frame f without storing its work list: it counts each
// node's routed triangles and then times the frame in the regime the
// dispatch rule picks for those counts.
func (m *Machine) streamFrame(ctx context.Context, f *trace.Scene) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	counts := make([]int, m.cfg.Procs)
	w := newDemuxScratch(m.cfg.Procs)
	for i := range f.Triangles {
		for _, p := range w.routeTriangle(m.dist, &f.Triangles[i]) {
			counts[p]++
		}
	}
	if m.decoupled(counts) {
		return m.streamDecoupled(ctx, f, counts)
	}
	return m.streamCoupled(ctx, f, w, counts)
}

// streamCoupled times frame f on one worker through the coupled recurrence,
// each destination as its triangle is demultiplexed into w. counts are
// the frame's per-node routed triangles.
func (m *Machine) streamCoupled(ctx context.Context, f *trace.Scene, w *demuxScratch, counts []int) error {
	c := newCoupledClock(m.cfg.TriangleBuffer, counts)
	err := m.streamTriangles(ctx, f, w, 0, 1, func(p int, work *engine.TriangleWork) {
		_, pop := c.push(p)
		c.finish(p, pop, m.engines[p].ProcessTriangle(pop, work))
	})
	if err != nil {
		return err
	}
	m.lastFIFOPeaks = c.peaks(m.lastFIFOPeaks[:0])
	return nil
}

// streamDecoupled times frame f in the decoupled regime: worker k of W
// walks the whole frame and times nodes k, k+W, k+2W, … with the decoupled
// driver's arithmetic — the first pop at cycle 0, each later pop at the
// ceiling of the node's previous completion. counts are the frame's
// per-node routed triangles, which are also the FIFO peaks.
func (m *Machine) streamDecoupled(ctx context.Context, f *trace.Scene, counts []int) error {
	procs := m.cfg.Procs
	workers := min(m.nodeParallelism(), procs)
	err := par.ForEach(ctx, workers, workers, func(k int) error {
		// ready[j] is when node k+j*workers next pops; the slice is the
		// worker's own, so no other worker writes its cache lines.
		ready := make([]float64, (procs-k+workers-1)/workers)
		return m.streamTriangles(ctx, f, newDemuxScratch(procs), k, workers, func(p int, work *engine.TriangleWork) {
			j := p / workers
			ready[j] = math.Ceil(m.engines[p].ProcessTriangle(ready[j], work))
		})
	})
	if err != nil {
		return err
	}
	m.lastFIFOPeaks = append(m.lastFIFOPeaks[:0], counts...)
	m.parallelFrames++
	return nil
}

// streamTriangles walks frame f in submission order for worker k of
// workers: it routes each triangle and, if the triangle reaches one of the
// worker's nodes (p mod workers = k), demultiplexes it into w and calls
// time with each such node, in route order, and its work item. The
// triangle's texture and level of detail are resolved once for all its
// nodes.
func (m *Machine) streamTriangles(ctx context.Context, f *trace.Scene, w *demuxScratch, k, workers int, time func(p int, work *engine.TriangleWork)) error {
	var work engine.TriangleWork
	for i := range f.Triangles {
		if i%ctxPollTriangles == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := &f.Triangles[i]
		dests := w.routeTriangle(m.dist, t)
		if !slices.ContainsFunc(dests, func(p int) bool { return p%workers == k }) {
			continue
		}
		w.demux(m.dist, m.rast, f.Screen, t, dests)
		work = boundWork(m.mgr, t)
		for _, p := range dests {
			if p%workers == k {
				work.Segments = w.spans[p]
				time(p, &work)
			}
		}
	}
	return nil
}

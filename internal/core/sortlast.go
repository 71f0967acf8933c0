package core

import (
	"context"
	"fmt"

	"repro/internal/distrib"
	"repro/internal/trace"
)

// SortLastAssignment selects how triangles are distributed over the nodes
// of a sort-last machine.
type SortLastAssignment int

const (
	// SortLastRoundRobin deals triangles to nodes one by one.
	SortLastRoundRobin SortLastAssignment = iota
	// SortLastChunked deals contiguous runs of triangles (whole objects or
	// mesh patches, which share textures) to nodes — the assignment that
	// preserves per-object texture locality.
	SortLastChunked
)

// String names the assignment.
func (a SortLastAssignment) String() string {
	switch a {
	case SortLastRoundRobin:
		return "round-robin"
	case SortLastChunked:
		return "chunked"
	default:
		return fmt.Sprintf("SortLastAssignment(%d)", int(a))
	}
}

// SortLastChunkSize is the triangle run length of SortLastChunked, sized to
// a typical mesh patch.
const SortLastChunkSize = 32

// SimulateSortLast renders the scene on the *sort-last* alternative the
// paper contrasts sort-middle against (its references [13] and [14]):
// triangles are distributed over the nodes by object, every node rasterizes
// its own triangles across the whole screen, and an ideal composition
// network merges the full-screen images afterwards. Texture mapping happens
// where the object lives, so a node sees only its own objects' textures —
// the texture-locality advantage of sort-last — but pixel work follows the
// objects, not the screen, and strict OpenGL ordering is lost (the paper's
// §1 reason for preferring sort-middle).
//
// TileSize and TriangleBuffer in cfg are ignored; the composition network
// and frame buffer are ideal, as the paper's geometry network is.
func SimulateSortLast(scene *trace.Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	return SimulateSortLastContext(context.Background(), scene, cfg, assign) //texlint:ignore ctxfirst SimulateSortLast is the documented uncancellable shim over SimulateSortLastContext
}

// SimulateSortLastContext is SimulateSortLast with cancellation.
func SimulateSortLastContext(ctx context.Context, scene *trace.Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	m, err := newSortLastMachine(scene, cfg, assign)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// newSortLastMachine builds the sort-last machine. It routes for a single
// node that owns the whole screen, so every on-screen triangle is routed
// once with all its spans, and times each frame with sortLastFrame.
func newSortLastMachine(scene *trace.Scene, cfg Config, assign SortLastAssignment) (*Machine, error) {
	route := func(Config) (distrib.Distribution, error) {
		return distrib.NewSLI(scene.Screen, 1, 1)
	}
	return newMachine(scene, cfg, route, func(m *Machine, ctx context.Context, f *trace.Scene) error {
		return m.sortLastFrame(ctx, f, assign)
	})
}

// sortLastFrame times frame f on the sort-last machine. It streams each
// triangle through the one route→demux step and times it on the engine its
// submission index assigns, as soon as that engine is free; nothing of the
// frame is stored. A triangle that routes nowhere (off screen) or is
// degenerate draws nothing and is skipped.
func (m *Machine) sortLastFrame(ctx context.Context, f *trace.Scene, assign SortLastAssignment) error {
	w := newDemuxScratch(1)
	for i := range f.Triangles {
		if i%ctxPollTriangles == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := &f.Triangles[i]
		dests := w.routeTriangle(m.dist, t)
		if len(dests) == 0 || t.Degenerate() {
			continue
		}
		w.demux(m.dist, m.rast, f.Screen, t, dests)
		node := i % m.cfg.Procs
		if assign == SortLastChunked {
			node = (i / SortLastChunkSize) % m.cfg.Procs
		}
		// Timed live: a sort-last machine never takes an artifact, so it
		// has no miss streams (missstream.go says why).
		work := boundWork(m.mgr, t)
		work.Segments = w.spans[0]
		e := m.engines[node]
		e.ProcessTriangle(e.Time(), &work)
	}
	m.lastFIFOPeaks = make([]int, m.cfg.Procs)
	return nil
}

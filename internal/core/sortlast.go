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
//
// The machine builds its frame for a single node that owns the whole
// screen, so every on-screen triangle is routed once with all its spans;
// the driver then deals the triangles to the engines.
func SimulateSortLastContext(ctx context.Context, scene *trace.Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	route := func(Config) (distrib.Distribution, error) {
		return distrib.NewSLI(scene.Screen, 1, 1)
	}
	replay := func(m *Machine, ctx context.Context, fa *FrameArtifact) error {
		return m.replaySortLast(ctx, fa, assign)
	}
	m, err := newMachine(scene, cfg, route, replay)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// replaySortLast is the sort-last driver: it times each routed triangle on
// the engine its submission index assigns, as soon as that engine is free.
// Degenerate triangles draw nothing and are skipped, though the build
// routes them. The build drops off-screen triangles, so the driver recovers
// each triangle's submission index by walking the machine's scene in step:
// an in-memory build points every destination at its source triangle.
func (m *Machine) replaySortLast(ctx context.Context, fa *FrameArtifact, assign SortLastAssignment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tris := m.scene.Triangles
	ti := 0
	for i := range fa.Tris {
		if i%ctxPollTriangles == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		d := &fa.Tris[i].Dests[0]
		for &tris[ti] != d.src {
			ti++
		}
		if d.src.Degenerate() {
			continue
		}
		node := ti % m.cfg.Procs
		if assign == SortLastChunked {
			node = (ti / SortLastChunkSize) % m.cfg.Procs
		}
		// Timed live: a sort-last machine never takes an artifact, so it
		// has no miss streams (missstream.go says why).
		e := m.engines[node]
		d.process(e, m.mgr, e.Time())
	}
	m.lastFIFOPeaks = make([]int, m.cfg.Procs)
	return nil
}

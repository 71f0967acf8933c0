package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/raster"
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
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	mgr, err := scene.BuildTextures()
	if err != nil {
		return nil, err
	}

	engines := newEngines(cfg)

	rast := raster.New(scene.Screen)
	var spans []raster.Span
	for ti := range scene.Triangles {
		t := &scene.Triangles[ti]
		if t.BBox().Intersect(scene.Screen).Empty() || t.Degenerate() {
			continue
		}
		var node int
		switch assign {
		case SortLastChunked:
			node = (ti / SortLastChunkSize) % cfg.Procs
		default:
			node = ti % cfg.Procs
		}
		spans = spans[:0]
		rast.ForEachSpan(*t, scene.Screen, func(sp raster.Span) {
			spans = append(spans, sp)
		})
		w := engine.TriangleWork{
			Tex:      mgr.Texture(t.TexID),
			Map:      t.Tex,
			LOD:      t.Tex.LOD(),
			Segments: spans,
		}
		e := engines[node]
		e.ProcessTriangle(e.Time(), &w)
	}

	res := &Result{Config: cfg, Scene: scene.Name}
	for _, e := range engines {
		res.add(nodeResult(e, 0))
	}
	return res, nil
}

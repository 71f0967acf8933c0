package texsim

import (
	"context"

	"repro/internal/core"
	"repro/internal/gl"
	"repro/internal/scene"
)

// DynamicOrder selects how the dynamic tile scheduler dispenses tiles.
type DynamicOrder = core.DynamicOrder

// Dynamic scheduling orders.
const (
	// DynamicScreenOrder dispenses tiles in row-major screen order.
	DynamicScreenOrder = core.DynamicScreenOrder
	// DynamicLPT dispenses tiles longest-estimated-work first.
	DynamicLPT = core.DynamicLPT
)

// SimulateDynamic renders the scene with *dynamic* tile assignment instead
// of the static interleave: idle processors pull whole tiles from a shared
// queue (the paper's §9 future-work question). Requires a Block
// distribution; the result is the upper bound a dynamic machine with
// whole-frame buffering could reach.
func SimulateDynamic(s *Scene, cfg Config, order DynamicOrder) (*Result, error) {
	return core.SimulateDynamic(s, cfg, order)
}

// SimulateDynamicContext is SimulateDynamic with cancellation; see
// SimulateContext.
func SimulateDynamicContext(ctx context.Context, s *Scene, cfg Config, order DynamicOrder) (*Result, error) {
	return core.SimulateDynamicContext(ctx, s, cfg, order)
}

// SortLastAssignment selects triangle distribution for SimulateSortLast.
type SortLastAssignment = core.SortLastAssignment

// Sort-last triangle assignments.
const (
	// SortLastRoundRobin deals triangles to nodes one by one.
	SortLastRoundRobin = core.SortLastRoundRobin
	// SortLastChunked deals contiguous mesh-patch runs, preserving
	// per-object texture locality.
	SortLastChunked = core.SortLastChunked
)

// SimulateSortLast renders the scene on a sort-last machine (object
// distribution, full-screen rendering per node, ideal composition) — the
// alternative the paper contrasts sort-middle against. TileSize and
// TriangleBuffer are ignored.
func SimulateSortLast(s *Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	return core.SimulateSortLast(s, cfg, assign)
}

// SimulateSortLastContext is SimulateSortLast with cancellation; see
// SimulateContext.
func SimulateSortLastContext(ctx context.Context, s *Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	return core.SimulateSortLastContext(ctx, s, cfg, assign)
}

// Translate returns a copy of the scene panned by (dx, dy) pixels with
// texture coordinates travelling along — the next frame of a camera pan.
func Translate(s *Scene, dx, dy float64) *Scene {
	return scene.Translate(s, dx, dy)
}

// PanSequence builds n frames, each panned stepX/stepY pixels further than
// the last (frame 0 is the scene itself). Feed the frames to
// Machine.RunSequence to study inter-frame texture locality, e.g. with an
// L2 configured (Config.L2Config / Config.MainBus).
func PanSequence(s *Scene, n int, stepX, stepY float64) []*Scene {
	return scene.PanSequence(s, n, stepX, stepY)
}

// RunSequence simulates consecutive frames on m without resetting the
// caches between frames; it is Machine.RunSequence, re-exported for
// discoverability next to PanSequence.
func RunSequence(m *Machine, frames []*Scene) ([]*Result, error) {
	return m.RunSequence(frames)
}

// GLContext records an OpenGL-1.x-style immediate-mode command stream
// (Begin/End, TexCoord2f, Vertex2f) into a Scene, the way the paper's Mesa
// instrumentation captured its triangle traces. See NewGL.
type GLContext = gl.Context

// GL primitive modes.
const (
	GLTriangles     = gl.Triangles
	GLTriangleStrip = gl.TriangleStrip
	GLTriangleFan   = gl.TriangleFan
	GLQuads         = gl.Quads
)

// NewGL opens an immediate-mode recording context for the given screen.
// Draw with GenTexture/BindTexture/Begin/TexCoord2f/Vertex2f/End, then call
// Scene to obtain the trace.
func NewGL(name string, screen Rect) *GLContext {
	return gl.NewContext(name, screen)
}

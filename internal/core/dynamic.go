package core

import (
	"fmt"
	"sort"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/raster"
	"repro/internal/trace"
)

// DynamicOrder selects how the dynamic scheduler hands out tiles.
type DynamicOrder int

const (
	// DynamicScreenOrder dispenses tiles in row-major screen order (what a
	// simple hardware tile queue would do).
	DynamicScreenOrder DynamicOrder = iota
	// DynamicLPT dispenses tiles longest-estimated-work first, the classic
	// list-scheduling heuristic; an upper bound on what a smarter queue
	// could achieve.
	DynamicLPT
)

// String names the order.
func (o DynamicOrder) String() string {
	switch o {
	case DynamicScreenOrder:
		return "screen-order"
	case DynamicLPT:
		return "LPT"
	default:
		return fmt.Sprintf("DynamicOrder(%d)", int(o))
	}
}

// SimulateDynamic evaluates the paper's §9 future-work question: how much
// would *dynamic* tile assignment buy over static interleaving? The screen
// is cut into the same square tiles as the block distribution, but instead
// of a hard-coded interleave, idle processors pull whole tiles from a shared
// queue. Each tile's triangle order is preserved, and tiles are disjoint
// screen regions, so strict per-pixel OpenGL ordering still holds.
//
// The model assumes the whole frame is buffered before scheduling (the
// upper bound the paper asks about — a real PC accelerator cannot do this,
// which is exactly why the paper's machines are static). Only block tiles
// are supported; cfg.Distribution must be BlockKind.
func SimulateDynamic(scene *trace.Scene, cfg Config, order DynamicOrder) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Distribution != distrib.BlockKind {
		return nil, fmt.Errorf("core: dynamic scheduling supports block tiles only")
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	mgr, err := scene.BuildTextures()
	if err != nil {
		return nil, err
	}

	// Bin the frame into tiles: per tile, the triangle work in submission
	// order plus a work estimate for LPT.
	w := cfg.TileSize
	tilesX := (scene.Screen.Width() + w - 1) / w
	tilesY := (scene.Screen.Height() + w - 1) / w
	nTiles := tilesX * tilesY
	type tileBin struct {
		id    int
		work  []engine.TriangleWork
		est   float64
		first int // submission index of first triangle, for stable ties
	}
	bins := make([]tileBin, nTiles)
	for i := range bins {
		bins[i] = tileBin{id: i, first: len(scene.Triangles)}
	}
	rast := raster.New(scene.Screen)
	segs := make(map[int][]raster.Span) // per-tile scratch for one triangle
	for ti := range scene.Triangles {
		t := &scene.Triangles[ti]
		bb := t.BBox().Intersect(scene.Screen)
		if bb.Empty() {
			continue
		}
		for k := range segs {
			delete(segs, k)
		}
		rast.ForEachSpan(*t, scene.Screen, func(sp raster.Span) {
			ty := (sp.Y - scene.Screen.Y0) / w
			for x := sp.X0; x < sp.X1; {
				tx := (x - scene.Screen.X0) / w
				end := scene.Screen.X0 + (tx+1)*w
				if end > sp.X1 {
					end = sp.X1
				}
				id := ty*tilesX + tx
				segs[id] = append(segs[id], raster.Span{Y: sp.Y, X0: x, X1: end})
				x = end
			}
		})
		// Route by bbox: tiles the bbox touches receive the triangle even
		// with zero owned pixels (setup cost), as in the static machine.
		tx0 := (bb.X0 - scene.Screen.X0) / w
		tx1 := (bb.X1 - 1 - scene.Screen.X0) / w
		ty0 := (bb.Y0 - scene.Screen.Y0) / w
		ty1 := (bb.Y1 - 1 - scene.Screen.Y0) / w
		tex := mgr.Texture(t.TexID)
		lod := t.Tex.LOD()
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				id := ty*tilesX + tx
				var owned []raster.Span
				if s := segs[id]; len(s) > 0 {
					owned = append(owned, s...)
				}
				b := &bins[id]
				b.work = append(b.work, engine.TriangleWork{
					Tex: tex, Map: t.Tex, LOD: lod, Segments: owned,
				})
				px := 0
				for _, sp := range owned {
					px += sp.Width()
				}
				est := float64(px)
				if est < float64(cfg.SetupCycles) {
					est = float64(cfg.SetupCycles)
				}
				b.est += est
				if ti < b.first {
					b.first = ti
				}
			}
		}
	}

	// Queue order.
	queue := make([]*tileBin, 0, nTiles)
	for i := range bins {
		if len(bins[i].work) > 0 {
			queue = append(queue, &bins[i])
		}
	}
	if order == DynamicLPT {
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].est > queue[j].est })
	}

	// Greedy dispatch: each tile goes to the processor that frees first.
	engines := newEngines(cfg)
	for _, tb := range queue {
		best := 0
		for i := 1; i < len(engines); i++ {
			if engines[i].Time() < engines[best].Time() {
				best = i
			}
		}
		e := engines[best]
		for k := range tb.work {
			e.ProcessTriangle(e.Time(), &tb.work[k])
		}
	}

	res := &Result{Config: cfg, Scene: scene.Name}
	for _, e := range engines {
		res.add(nodeResult(e, 0))
	}
	return res, nil
}

package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/distrib"
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
	return SimulateDynamicContext(context.Background(), scene, cfg, order) //texlint:ignore ctxfirst SimulateDynamic is the documented uncancellable shim over SimulateDynamicContext
}

// SimulateDynamicContext is SimulateDynamic with cancellation.
//
// The machine routes with one node per tile: a block distribution over
// tilesX*tilesY nodes has row stride tilesX, so node k owns exactly tile k,
// and the frame's per-node work lists are the tile queue's entries.
func SimulateDynamicContext(ctx context.Context, scene *trace.Scene, cfg Config, order DynamicOrder) (*Result, error) {
	route := func(c Config) (distrib.Distribution, error) {
		if c.Distribution != distrib.BlockKind {
			return nil, fmt.Errorf("core: dynamic scheduling supports block tiles only")
		}
		w := c.TileSize
		tiles := ((scene.Screen.Width() + w - 1) / w) * ((scene.Screen.Height() + w - 1) / w)
		return distrib.NewBlock(scene.Screen, tiles, w)
	}
	timeFrame := func(m *Machine, ctx context.Context, f *trace.Scene) error {
		return m.dynamicFrame(ctx, f, order)
	}
	m, err := newMachine(scene, cfg, route, timeFrame)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// dynamicFrame times frame f on the tile queue. The queue needs every
// tile's whole list before it can time any, so, alone among the machine
// models, it builds the frame's work list in memory first, on the machine's
// node workers, and drops it after the frame. Tiles with work join the
// queue in screen order, or for LPT in descending order of their estimated
// work, Σ max(pixels, setup) over the tile's triangles. Each tile in turn
// goes whole to the engine that frees first (the lowest index on ties),
// which times the tile's triangles back to back.
func (m *Machine) dynamicFrame(ctx context.Context, f *trace.Scene, order DynamicOrder) error {
	fa, err := buildFrameArtifact(ctx, f, m.dist, m.rast, m.mgr, m.nodeParallelism(), false)
	if err != nil {
		return err
	}
	fa.finalize(m.dist.NumProcs())
	type tile struct {
		work []*ArtifactDest
		est  float64
	}
	var queue []tile
	for _, work := range fa.perNode {
		if len(work) > 0 {
			queue = append(queue, tile{work: work})
		}
	}
	if order == DynamicLPT {
		setup := float64(m.cfg.SetupCycles)
		for i := range queue {
			for _, d := range queue[i].work {
				queue[i].est += math.Max(float64(d.Work.Frags()), setup)
			}
		}
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].est > queue[j].est })
	}
	n := 0
	for _, t := range queue {
		e := m.engines[0]
		for _, c := range m.engines[1:] {
			if c.Time() < e.Time() {
				e = c
			}
		}
		for _, d := range t.work {
			if n++; n%ctxPollTriangles == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Timed live: the tile queue never takes an artifact, so it
			// has no miss streams (missstream.go says why).
			d.process(e, m.mgr, e.Time())
		}
	}
	m.lastFIFOPeaks = make([]int, m.cfg.Procs)
	return nil
}

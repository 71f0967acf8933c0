package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
)

// extL2Pans are the viewpoint pan distances (pixels per frame) swept by the
// inter-frame locality experiment.
// Pans are small relative to the screen so the scene stays on-screen over
// the whole sequence.
var extL2Pans = []float64{0, 4, 8, 16, 32, 64}

// extL2Tiles are the block widths compared: the paper's §9 argument is that
// the L2's usefulness depends on the pan distance *relative to the tile
// size*.
var extL2Tiles = []int{16, 64}

// RunExtL2 is the paper's §9 future work made concrete: per-node L2 texture
// caches (the graphics-card memory, after Cox) under viewpoint panning. A
// pan smaller than the tile keeps each node's next-frame texels in its own
// L2; a pan larger than the tile hands them to other nodes, whose L2s must
// reload them from main memory.
func RunExtL2(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	const sceneName = "massive11255"
	const procs = 16
	const frames = 3
	s, err := buildScene(ctx, sceneName, opt)
	if err != nil {
		return nil, err
	}

	// L2 sized to hold the scene's full working set comfortably: the effect
	// under study is redistribution across nodes, not L2 capacity.
	texBytes, err := s.TextureBytes()
	if err != nil {
		return nil, err
	}
	l2Bytes := 1 << 20
	for l2Bytes < 2*texBytes {
		l2Bytes <<= 1
	}
	l2 := cache.Config{SizeBytes: l2Bytes, Ways: 8, LineBytes: 64}

	type outcome struct {
		coldMain uint64  // frame-1 main-memory lines (compulsory)
		warmMain uint64  // mean frames-2+ main-memory lines
		l2Miss   float64 // warm-frame L2 miss rate
	}
	// cells is tile-major: cell i is tile i/len(extL2Pans), pan
	// i%len(extL2Pans).
	cells := make([]outcome, len(extL2Tiles)*len(extL2Pans))
	err = par.ForEach(ctx, opt.Parallelism, len(cells), func(i int) error {
		tile, pan := extL2Tiles[i/len(extL2Pans)], extL2Pans[i%len(extL2Pans)]
		m, err := core.NewMachine(s, core.Config{
			Procs: procs, Distribution: distrib.BlockKind, TileSize: tile,
			CacheKind: core.CacheReal, L2Config: l2,
		})
		if err != nil {
			return err
		}
		seq := scene.PanSequence(s, frames, pan, 0)
		results, err := m.RunSequenceContext(ctx, seq)
		if err != nil {
			return err
		}
		var out outcome
		var warmAcc, warmMiss uint64
		for fi, r := range results {
			var main uint64
			for ni := range r.Nodes {
				main += r.Nodes[ni].MainBus.LinesFetched
				if fi > 0 {
					warmAcc += r.Nodes[ni].L2.Accesses
					warmMiss += r.Nodes[ni].L2.Misses
				}
			}
			if fi == 0 {
				out.coldMain = main
			} else {
				out.warmMain += main
			}
		}
		out.warmMain /= uint64(frames - 1)
		if warmAcc > 0 {
			out.l2Miss = float64(warmMiss) / float64(warmAcc)
		}
		cells[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tables []*stats.Table
	for ti, tile := range extL2Tiles {
		t := &stats.Table{
			Caption: fmt.Sprintf("%s, %d processors, block-%d, per-node L2 (%d KB): main-memory traffic under viewpoint panning",
				sceneName, procs, tile, l2Bytes/1024),
			Header: []string{"pan px/frame", "cold main lines", "warm main lines",
				"warm/cold", "warm L2 miss rate"},
		}
		for pi, pan := range extL2Pans {
			o := cells[ti*len(extL2Pans)+pi]
			ratio := 0.0
			if o.coldMain > 0 {
				ratio = float64(o.warmMain) / float64(o.coldMain)
			}
			t.AddRow(stats.F(pan, 0),
				fmt.Sprintf("%d", o.coldMain),
				fmt.Sprintf("%d", o.warmMain),
				stats.Pct(ratio),
				stats.Pct(o.l2Miss))
		}
		tables = append(tables, t)
	}

	return &Report{
		ID:    "ext-l2",
		Title: "Extension (§9 future work): inter-frame L2 texture locality vs viewpoint translation",
		Notes: []string{
			scaleNote(opt),
			"expect: warm-frame main traffic stays near zero while the pan is below the tile size, then grows — the larger the tile, the larger the pan it tolerates",
		},
		Table: tables,
	}, nil
}

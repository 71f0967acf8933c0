package texsim

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/par"
)

// ScoredConfig is one candidate machine configuration with its measured
// outcome on a scene.
type ScoredConfig struct {
	Config          Config
	Speedup         float64
	Cycles          float64
	TexelToFragment float64
	PixelImbalance  float64
}

// Recommendation ranks candidate distributions and sizes for one scene on
// one machine substrate (processor count, cache, bus, buffer).
type Recommendation struct {
	// Best is the highest-speedup candidate.
	Best ScoredConfig
	// Ranked lists every candidate, best first.
	Ranked []ScoredConfig
	// SingleProcCycles is the baseline the speedups are relative to.
	SingleProcCycles float64
}

// defaultCandidateSizes mirrors the paper's sweeps.
var (
	advisorBlockWidths = []int{4, 8, 16, 32, 64}
	advisorSLILines    = []int{1, 2, 4, 8, 16}
)

// Recommend sweeps block and SLI distributions across the paper's size
// ranges on the given scene, holding the rest of base (Procs, CacheKind,
// Bus, TriangleBuffer, ...) fixed, and returns the ranked outcomes — the
// decision the paper's designer has to make before taping out. base.Procs
// must be set; base.Distribution and base.TileSize are ignored.
func Recommend(s *Scene, base Config) (*Recommendation, error) {
	if base.Procs <= 1 {
		return nil, fmt.Errorf("texsim: Recommend needs base.Procs > 1, got %d", base.Procs)
	}
	single := base
	single.Procs = 1
	single.TileSize = 16
	single.Distribution = Block
	baseRes, err := Simulate(s, single)
	if err != nil {
		return nil, err
	}

	var candidates []Config
	for _, w := range advisorBlockWidths {
		c := base
		c.Distribution = Block
		c.TileSize = w
		candidates = append(candidates, c)
	}
	for _, l := range advisorSLILines {
		c := base
		c.Distribution = SLI
		c.TileSize = l
		candidates = append(candidates, c)
	}

	scored := make([]ScoredConfig, len(candidates))
	err = par.ForEach(context.TODO(), runtime.NumCPU(), len(candidates), func(i int) error {
		res, err := Simulate(s, candidates[i])
		if err != nil {
			return err
		}
		scored[i] = ScoredConfig{
			Config:          candidates[i],
			Speedup:         baseRes.Cycles / res.Cycles,
			Cycles:          res.Cycles,
			TexelToFragment: res.TexelToFragment(),
			PixelImbalance:  res.PixelImbalance(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Speedup > scored[j].Speedup })
	return &Recommendation{
		Best:             scored[0],
		Ranked:           scored,
		SingleProcCycles: baseRes.Cycles,
	}, nil
}

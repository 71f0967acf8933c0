package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sweep"
)

// defaultSeed selects each workload's canonical inputs: the configurations
// listed in README.md. Every other seed draws the machine axes (cache size,
// bus bandwidth, buffer depth) from fixed pools at the same point count.
// The geometry (scene, processors, tile sizes) stays fixed, so the amount of
// host work per operation stays comparable across seeds while the simulated
// results differ.
const defaultSeed = 1

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"frame", "grid", "axes", "service"}

// sweepSpec returns the one sweep a sweep workload (frame, grid, axes) runs
// over and over for the given seed.
func sweepSpec(workload string, seed int64) (sweep.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	canonical := seed == defaultSeed
	switch workload {
	case "frame":
		// The interactive "what does this config do" request: one
		// paper-scale point, whose machines run the parallel node kernel.
		sp := sweep.Spec{Scene: "truc640", Scale: 1, Dist: "block",
			Procs: []int{64}, Sizes: []int{16}, Caches: []int{16}, Bus: 1}
		if !canonical {
			sp.Caches = []int{pick(rng, []int{8, 16, 32})}
			sp.Bus = pick(rng, []float64{0.5, 1, 2})
		}
		return sp, nil
	case "grid":
		// The paper's distribution grid: every point is its own raster class
		// and rasterizes inline on the event kernel.
		sp := sweep.Spec{Scene: "truc640", Scale: 0.3, Dist: "block",
			Procs: []int{1, 4, 16, 64}, Sizes: []int{4, 8, 16, 32, 64},
			Caches: []int{16}, Bus: 1}
		if !canonical {
			sp.Caches = []int{pick(rng, []int{8, 16, 32})}
			sp.Bus = pick(rng, []float64{1, 2})
		}
		return sp, nil
	case "axes":
		// A design-space sweep: few raster classes, many replays, half of
		// them FIFO-coupled (small buffer) and half decoupled.
		sp := sweep.Spec{Scene: "massive11255", Scale: 0.2, Dist: "block",
			Procs: []int{16, 64}, Sizes: []int{8, 16},
			Caches: []int{4, 16, 64}, Buses: []float64{0.5, 1, 2},
			Buffers: []int{20, 10000}}
		if !canonical {
			sp.Caches = pickN(rng, []int{2, 4, 8, 16, 32, 64}, 3)
			sp.Buses = pickN(rng, []float64{0.5, 1, 2, 4}, 3)
			sp.Buffers = []int{pick(rng, []int{16, 20, 24}), 10000}
		}
		return sp, nil
	}
	return sweep.Spec{}, fmt.Errorf("%q is not a sweep workload", workload)
}

// serviceJob is one submission of the service workload's closed loop.
type serviceJob struct {
	spec sweep.Spec
	// hot marks a repeat of a spec the same client already received; its
	// result must come from the result cache.
	hot bool
	// coldIndex is the index of the client's earlier cold job with the same
	// spec (hot jobs only).
	coldIndex int
}

// serviceClients and serviceJobsPerClient size the closed loop's schedule.
// The schedule is longer than any run consumes; a run stops when its time
// is up.
const (
	serviceClients       = 2
	serviceJobsPerClient = 500
)

// serviceSchedule returns each client's submissions in order. About a third
// of a client's submissions repeat a spec that client has already received;
// every other submission is a spec no client submitted before, so it is a
// guaranteed cache miss. Clients draw in turn, so every client's schedule
// has the same mix.
func serviceSchedule(seed int64) [][]serviceJob {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	out := make([][]serviceJob, serviceClients)
	colds := make([][]int, serviceClients) // indexes of each client's cold jobs
	for k := 0; k < serviceJobsPerClient; k++ {
		for c := range out {
			if len(colds[c]) > 0 && rng.Intn(3) == 0 {
				ci := colds[c][rng.Intn(len(colds[c]))]
				out[c] = append(out[c], serviceJob{spec: out[c][ci].spec, hot: true, coldIndex: ci})
				continue
			}
			sp := interactiveSpec(rng)
			for seen[specKey(sp)] {
				sp = interactiveSpec(rng)
			}
			seen[specKey(sp)] = true
			colds[c] = append(colds[c], len(out[c]))
			out[c] = append(out[c], serviceJob{spec: sp})
		}
	}
	return out
}

// interactiveSpec draws one interactive sweep: 2 points plus their
// baseline at scale 0.25 on a scene whose simulations take about 20 ms
// each, so every cold job costs about the same. The pools hold 1280
// distinct specs, above the ~670 cold jobs a schedule draws.
func interactiveSpec(rng *rand.Rand) sweep.Spec {
	return sweep.Spec{
		Scene:  "quake",
		Scale:  0.25,
		Dist:   "block",
		Procs:  pickN(rng, []int{2, 4, 8, 16, 32}, 2),
		Sizes:  []int{pick(rng, []int{8, 16, 32, 64})},
		Caches: []int{pick(rng, []int{1, 2, 4, 8, 16, 32, 64, 128})},
		Bus:    pick(rng, []float64{0.5, 1, 2, 4}),
	}
}

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.Intn(len(pool))] }

// pickN draws n distinct values from pool and returns them in pool order.
func pickN[T any](rng *rand.Rand, pool []T, n int) []T {
	idx := rng.Perm(len(pool))[:n]
	sort.Ints(idx)
	out := make([]T, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// goldensPath holds the recorded outputs, relative to the repository root.
const goldensPath = "perfbench/goldens.json"

// golden is what a seed's run must reproduce: the digest of the workload's
// output (the sweep CSV, or the service's first result documents) and, for
// the traced run, the exact counts of guardedCounts.
type golden struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// guardedCounts are per-layer counts a simulator-only change must leave
// exactly as recorded. A changed count means a changed program, not noise.
var guardedCounts = []string{"raster.frags", "distrib.routes", "cache.accesses", "cache.hit_ratio", "sweep.rasterized"}

// goldenFile maps workload, then seed, to the recorded golden.
type goldenFile map[string]map[string]golden

func loadGoldens() (goldenFile, error) {
	data, err := os.ReadFile(goldensPath)
	if errors.Is(err, fs.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldensPath, err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed int64) (golden, bool) {
	gd, ok := g[workload][strconv.FormatInt(seed, 10)]
	return gd, ok
}

// record stores gd for (workload, seed) and rewrites the file.
func (g goldenFile) record(workload string, seed int64, gd golden) error {
	if g[workload] == nil {
		g[workload] = make(map[string]golden)
	}
	g[workload][strconv.FormatInt(seed, 10)] = gd
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldensPath, append(data, '\n'), 0o644)
}

// checkCounts compares the guarded counts of a traced run with the golden's
// and returns one message per mismatch.
func (gd golden) checkCounts(m map[string]float64) []string {
	var out []string
	for _, name := range guardedCounts {
		want, ok := gd.Counts[name]
		if !ok {
			continue
		}
		if got := m[name]; got != want {
			out = append(out, fmt.Sprintf("%s = %v, recorded %v: the program changed", name, got, want))
		}
	}
	return out
}

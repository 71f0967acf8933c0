package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/trace"
)

// FuzzFrameDrivers is the cross-driver differential oracle: a random small
// scene on a random machine must give byte-identical results on the forced
// FIFO-coupled driver, under the default dispatch rule, replaying a
// memoized artifact with footprint streams, and replaying that artifact
// after a TXRA encode→decode round trip. Every run must also conserve the
// fragments a single node draws.
func FuzzFrameDrivers(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), uint8(16), uint8(0), uint8(1), uint16(9999), false)
	f.Add(int64(2), uint8(60), uint8(8), uint8(1), uint8(2), uint8(1), uint8(2), uint16(7), false)
	f.Add(int64(3), uint8(30), uint8(16), uint8(2), uint8(8), uint8(2), uint8(3), uint16(0), true)
	f.Add(int64(4), uint8(80), uint8(5), uint8(0), uint8(1), uint8(0), uint8(0), uint16(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nTri, procs, dist, tile, cacheKind, bus uint8, buffer uint16, l2 bool) {
		s := testScene(seed, 1+int(nTri)%96, 96)
		cfg := Config{
			Procs:          1 + int(procs)%16,
			Distribution:   []distrib.Kind{distrib.BlockKind, distrib.SLIKind, distrib.BlockSkewedKind}[dist%3],
			TileSize:       1 + int(tile)%64,
			CacheKind:      []CacheKind{CacheReal, CachePerfect, CacheNone}[cacheKind%3],
			Bus:            memory.BusConfig{TexelsPerCycle: []float64{0, 0.5, 1, 2}[bus%4]},
			TriangleBuffer: 1 + int(buffer)%10000,
		}
		if l2 {
			cfg.L2Config = l2Config()
			cfg.MainBus = memory.BusConfig{TexelsPerCycle: 1}
		}
		frames := []*trace.Scene{s}
		run := func(cfg Config, a *RasterArtifact, coupled bool) *Result {
			t.Helper()
			m, err := NewMachine(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.coupledOnly = coupled
			if err := m.SetRasterArtifact(a); err != nil {
				t.Fatal(err)
			}
			rs, err := m.RunSequence(frames)
			if err != nil {
				t.Fatal(err)
			}
			return rs[0]
		}
		encode := func(r *Result) string {
			js, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return string(js)
		}

		ref := run(cfg, nil, true)
		want := encode(ref)
		cfgd := cfg.withDefaults()
		a, err := BuildRasterArtifact(context.Background(), frames, cfgd.Procs,
			cfgd.Distribution, cfgd.TileSize, ArtifactOpts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeRasterArtifact(&buf, a); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeRasterArtifact(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name string
			a    *RasterArtifact
		}{{"default dispatch", nil}, {"memoized artifact", a}, {"TXRA round trip", decoded}} {
			if got := encode(run(cfg, p.a, false)); got != want {
				t.Errorf("%s diverged from the coupled driver\ncoupled: %s\n%s: %s", p.name, want, p.name, got)
			}
		}

		single := cfg
		single.Procs = 1
		one := run(single, nil, false)
		var frags uint64
		for _, n := range ref.Nodes {
			frags += n.Fragments
		}
		if frags != one.Fragments || ref.Fragments != one.Fragments {
			t.Errorf("fragments not conserved: nodes sum %d, result %d, one node %d",
				frags, ref.Fragments, one.Fragments)
		}
	})
}

package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// FuzzFrameDrivers is the cross-driver differential oracle: a random small
// scene on a random machine must give the event-driven reference's results,
// byte for byte, on the forced FIFO-coupled driver, under the default
// dispatch rule, replaying a memoized artifact with footprint streams, and
// replaying that artifact after a TXRA encode→decode round trip. With
// record set, every run also records an auto-interval flight trace, which
// must match the reference's byte for byte too. Every run must conserve the
// fragments a single node draws. The same input, with degenerate and
// off-screen triangles mixed into the scene, also holds sort-last in both
// assignments and, on block inputs, the dynamic tile queue in both orders to
// their hand-written references.
func FuzzFrameDrivers(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), uint8(16), uint8(0), uint8(1), uint16(9999), false, false)
	f.Add(int64(2), uint8(60), uint8(8), uint8(1), uint8(2), uint8(1), uint8(2), uint16(7), false, true)
	f.Add(int64(3), uint8(30), uint8(16), uint8(2), uint8(8), uint8(2), uint8(3), uint16(0), true, false)
	f.Add(int64(4), uint8(80), uint8(5), uint8(0), uint8(1), uint8(0), uint8(0), uint16(2), true, false)
	f.Fuzz(func(t *testing.T, seed int64, nTri, procs, dist, tile, cacheKind, bus uint8, buffer uint16, l2, record bool) {
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
		// run returns the frame's result and, with record set, its trace.
		run := func(cfg Config, a *RasterArtifact, force func(*Machine)) (*Result, string) {
			t.Helper()
			m, err := NewMachine(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if force != nil {
				force(m)
			}
			var rec *flight.Recorder
			if record {
				rec = m.EnableFlightRecorder(0)
			}
			if err := m.SetRasterArtifact(a); err != nil {
				t.Fatal(err)
			}
			rs, err := m.RunSequence(frames)
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				return rs[0], ""
			}
			tr, err := rec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			return rs[0], string(tr)
		}
		encode := func(r *Result) string {
			js, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return string(js)
		}

		ref, wantTrace := run(cfg, nil, forceOracle)
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
			name  string
			a     *RasterArtifact
			force func(*Machine)
		}{
			{"forced coupled", nil, forceCoupled},
			{"default dispatch", nil, nil},
			{"memoized artifact", a, nil},
			{"TXRA round trip", decoded, nil},
		} {
			res, tr := run(cfg, p.a, p.force)
			if got := encode(res); got != want {
				t.Errorf("%s diverged from the reference\nreference: %s\n%s: %s", p.name, want, p.name, got)
			}
			if tr != wantTrace {
				t.Errorf("%s: flight trace diverged from the reference (%d vs %d bytes)", p.name, len(tr), len(wantTrace))
			}
		}

		single := cfg
		single.Procs = 1
		one, _ := run(single, nil, nil)
		var frags uint64
		for _, n := range ref.Nodes {
			frags += n.Fragments
		}
		if frags != one.Fragments || ref.Fragments != one.Fragments {
			t.Errorf("fragments not conserved: nodes sum %d, result %d, one node %d",
				frags, ref.Fragments, one.Fragments)
		}

		extensionCheck(t, withDrawless(s), cfg)
	})
}

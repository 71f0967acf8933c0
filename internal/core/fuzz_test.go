package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// FuzzFrameDrivers is the cross-driver differential oracle: a random small
// scene — or, on odd seeds, a two-frame sequence — on a random machine must
// give the event-driven reference's results, byte for byte, on the forced
// FIFO-coupled driver, under the default dispatch rule, replaying a
// memoized artifact with footprint streams, replaying that artifact after a
// TXRA encode→decode round trip, and timing from one prebuilt miss stream
// shared by machines on both drivers and at a second bus ratio and buffer
// depth. With record set, every run also records an auto-interval flight
// trace, which must match the reference's byte for byte too. Every run must
// conserve the fragments a single node draws and hold the model's physical
// invariants (checkInvariants). The same input, with degenerate and
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
		if seed%2 != 0 {
			next := testScene(seed+1, 1+int(nTri/2)%96, 96)
			next.Name = "core-test-2"
			frames = append(frames, next)
		}
		// run returns the sequence's encoded results, checked against the
		// physical invariants, and, with record set, its trace.
		run := func(cfg Config, a *RasterArtifact, ms *MissStreams, force func(*Machine)) (string, string) {
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
			if err := m.SetMissStreams(ms); err != nil {
				t.Fatal(err)
			}
			rs, err := m.RunSequence(frames)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				checkInvariants(t, cfg, r)
			}
			js, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				return string(js), ""
			}
			tr, err := rec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			return string(js), string(tr)
		}

		want, wantTrace := run(cfg, nil, nil, forceOracle)
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
		shared, err := BuildMissStreams(context.Background(), a, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name  string
			a     *RasterArtifact
			ms    *MissStreams
			force func(*Machine)
		}{
			{"forced coupled", nil, nil, forceCoupled},
			{"default dispatch", nil, nil, nil},
			{"memoized artifact", a, nil, nil},
			{"TXRA round trip", decoded, nil, nil},
			{"shared stream", a, shared, nil},
			{"shared stream, forced coupled", a, shared, forceCoupled},
		} {
			got, tr := run(cfg, p.a, p.ms, p.force)
			if got != want {
				t.Errorf("%s diverged from the reference\nreference: %s\n%s: %s", p.name, want, p.name, got)
			}
			if tr != wantTrace {
				t.Errorf("%s: flight trace diverged from the reference (%d vs %d bytes)", p.name, len(tr), len(wantTrace))
			}
		}

		// The same stream times another bus ratio and buffer depth, as long
		// as the cache geometry (pure scan included) stays the same.
		other := cfg
		other.Bus.TexelsPerCycle = []float64{3, 0.25}[bus%2]
		other.TriangleBuffer = 1 + int(buffer/3)%10000
		if other.MissGeometry() == cfg.MissGeometry() {
			want, wantTrace := run(other, nil, nil, forceOracle)
			got, tr := run(other, a, shared, nil)
			if got != want || tr != wantTrace {
				t.Errorf("shared stream at bus %v, buffer %d diverged from the reference\nreference: %s\nstream:    %s",
					other.Bus.TexelsPerCycle, other.TriangleBuffer, want, got)
			}
		}

		single := cfg
		single.Procs = 1
		m, err := NewMachine(s, single)
		if err != nil {
			t.Fatal(err)
		}
		ones, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		var refs []*Result
		if err := json.Unmarshal([]byte(want), &refs); err != nil {
			t.Fatal(err)
		}
		for i, ref := range refs {
			var frags uint64
			for _, n := range ref.Nodes {
				frags += n.Fragments
			}
			if frags != ones[i].Fragments || ref.Fragments != ones[i].Fragments {
				t.Errorf("frame %d: fragments not conserved: nodes sum %d, result %d, one node %d",
					i, frags, ref.Fragments, ones[i].Fragments)
			}
		}

		extensionCheck(t, withDrawless(s), cfg)
	})
}

// checkInvariants fails the test unless result r of a machine configured
// with cfg obeys the paper model's physical invariants: every routed
// triangle holds its node for at least the setup cost, and every fragment
// for a scan cycle plus its stall; every L1 miss
// fetches one line over the texture bus and every L2 miss one over the
// main-memory bus; a perfect cache on an infinite bus never stalls and
// fetches nothing; and no node is busy for longer than the frame. Busy
// cycles are float sums (per-frame differences of them, in a sequence), so
// the bounds allow for rounding.
func checkInvariants(t *testing.T, cfg Config, r *Result) {
	t.Helper()
	cfg = cfg.withDefaults()
	const slack = 1e-9
	maxBusy := 0.0
	for p, n := range r.Nodes {
		if floor := float64(cfg.SetupCycles) * float64(n.Triangles); n.BusyCycles < floor*(1-slack) {
			t.Errorf("%s node %d: busy %v cycles for %d triangles, below the %v-cycle setup floor",
				cfg.Name(), p, n.BusyCycles, n.Triangles, floor)
		}
		if work := float64(n.Fragments) + n.StallCycles; n.BusyCycles < work*(1-slack) {
			t.Errorf("%s node %d: busy %v cycles for %d fragments and %v stall cycles",
				cfg.Name(), p, n.BusyCycles, n.Fragments, n.StallCycles)
		}
		if n.Bus.LinesFetched != n.Cache.Misses {
			t.Errorf("%s node %d: %d bus lines for %d cache misses", cfg.Name(), p, n.Bus.LinesFetched, n.Cache.Misses)
		}
		if n.MainBus.LinesFetched != n.L2.Misses {
			t.Errorf("%s node %d: %d main-bus lines for %d L2 misses", cfg.Name(), p, n.MainBus.LinesFetched, n.L2.Misses)
		}
		if cfg.CacheKind == CachePerfect && cfg.Bus.Infinite() &&
			(n.StallCycles != 0 || n.Bus.LinesFetched != 0 || n.MainBus.LinesFetched != 0) {
			t.Errorf("%s node %d: perfect cache on an infinite bus stalled %v cycles and fetched %d+%d lines",
				cfg.Name(), p, n.StallCycles, n.Bus.LinesFetched, n.MainBus.LinesFetched)
		}
		maxBusy = max(maxBusy, n.BusyCycles)
	}
	if r.Cycles < maxBusy*(1-slack) {
		t.Errorf("%s: %v machine cycles, but a node was busy for %v", cfg.Name(), r.Cycles, maxBusy)
	}
}

// FuzzDecodeRasterArtifact: DecodeRasterArtifact never panics on hostile
// bytes, and an artifact it accepts replays: timed from the miss streams of
// a machine of its own distribution — pure scan always, and with footprint
// streams also a real cache with an L2 and the cacheless model — every
// frame draws exactly the fragments its segments hold, within the physical
// invariants. Artifacts too big to replay in a fuzz iteration are only
// decoded.
func FuzzDecodeRasterArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeRasterArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		if a.Procs > 64 || a.Screen.Width() > 1024 || a.Screen.Height() > 1024 ||
			len(a.Frames) == 0 || len(a.Textures) > 4 {
			return
		}
		for _, ts := range a.Textures {
			if ts.W > 1024 || ts.H > 1024 {
				return
			}
		}
		want := make([]uint64, len(a.Frames))
		total := 0
		frames := make([]*trace.Scene, len(a.Frames))
		for i, fa := range a.Frames {
			for _, tri := range fa.Tris {
				for _, d := range tri.Dests {
					want[i] += uint64(d.Work.Frags())
					total += d.Work.Frags()
				}
			}
			if fa.Triangles > 1<<12 || total > 1<<16 {
				return
			}
			frames[i] = &trace.Scene{Name: fa.Name, Screen: a.Screen, Textures: a.Textures,
				Triangles: make([]geom.Triangle, fa.Triangles)}
		}
		cfgs := []Config{{CacheKind: CachePerfect}}
		if a.HasFootprints {
			cfgs = append(cfgs,
				Config{Bus: memory.BusConfig{TexelsPerCycle: 0.5}, L2Config: l2Config(), MainBus: memory.BusConfig{TexelsPerCycle: 1}},
				Config{CacheKind: CacheNone, Bus: memory.BusConfig{TexelsPerCycle: 2}})
		}
		for _, cfg := range cfgs {
			cfg.Procs, cfg.Distribution, cfg.TileSize = a.Procs, a.Dist, a.TileSize
			m, err := NewMachine(frames[0], cfg)
			if err != nil {
				return // no valid scene or distribution for these parameters
			}
			if m.SetRasterArtifact(a) != nil {
				return // not replayable by design (a tile size the machine defaults away)
			}
			rs, err := m.RunSequence(frames)
			if err != nil {
				t.Fatalf("%s: replaying an accepted artifact: %v", cfg.Name(), err)
			}
			for i, r := range rs {
				if r.Fragments != want[i] {
					t.Errorf("%s frame %d: replay drew %d fragments, segments hold %d", cfg.Name(), i, r.Fragments, want[i])
				}
				checkInvariants(t, cfg, r)
			}
		}
	})
}

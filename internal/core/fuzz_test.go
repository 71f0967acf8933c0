package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// FuzzFrameDrivers is the cross-driver differential oracle: a random small
// scene — or, on odd seeds, a two-frame sequence — on a random machine must
// give the event-driven reference's results, byte for byte, on the forced
// FIFO-coupled driver, under the default dispatch rule (the frame stream,
// on GOMAXPROCS workers and on one), replaying a memoized artifact with
// footprint streams, replaying a spans-only artifact (timed live), and
// timing from the miss streams of a two-geometry probe walk over the
// spans-only artifact: one stream shared by machines on both drivers and at
// a second bus ratio and buffer depth, the other timing a machine of the
// second geometry. With record set, every run also records an
// auto-interval flight trace, which must match the reference's byte for
// byte too. Every run must conserve the fragments a single node draws and
// hold the model's physical invariants (checkInvariants). The same input,
// with degenerate and off-screen triangles mixed into the scene, also holds
// sort-last in both assignments and, on block inputs, the dynamic tile
// queue in both orders to their hand-written references.
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
		spans, err := BuildRasterArtifact(context.Background(), frames, cfgd.Procs,
			cfgd.Distribution, cfgd.TileSize, ArtifactOpts{Workers: 2, SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		// The second geometry toggles the L2, or on a pure-scan machine
		// moves to a finite bus, so the walk always probes something.
		second := cfg
		if cfg.HasL2() {
			second.L2Config, second.MainBus = cache.Config{}, memory.BusConfig{}
		} else {
			second.L2Config, second.MainBus = l2Config(), memory.BusConfig{TexelsPerCycle: 1}
		}
		if cfg.MissGeometry().PureScan {
			second.Bus.TexelsPerCycle = 2
		}
		walked, err := BuildMissStreams(context.Background(), spans, []Config{cfg, second}, 2)
		if err != nil {
			t.Fatal(err)
		}
		shared := walked[0]
		for _, p := range []struct {
			name  string
			a     *RasterArtifact
			ms    *MissStreams
			force func(*Machine)
		}{
			{"forced coupled", nil, nil, forceCoupled},
			{"default dispatch", nil, nil, nil},
			{"default dispatch, one worker", nil, nil, func(m *Machine) { m.SetNodeParallelism(1) }},
			{"memoized artifact", a, nil, nil},
			{"spans-only artifact", spans, nil, nil},
			{"shared stream", spans, shared, nil},
			{"shared stream, forced coupled", spans, shared, forceCoupled},
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
			got, tr := run(other, spans, shared, nil)
			if got != want || tr != wantTrace {
				t.Errorf("shared stream at bus %v, buffer %d diverged from the reference\nreference: %s\nstream:    %s",
					other.Bus.TexelsPerCycle, other.TriangleBuffer, want, got)
			}
		}
		// The walk's second stream times its own geometry.
		want2, wantTrace2 := run(second, nil, nil, forceOracle)
		if got, tr := run(second, spans, walked[1], nil); got != want2 || tr != wantTrace2 {
			t.Errorf("second geometry's stream diverged from the reference\nreference: %s\nstream:    %s", want2, got)
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

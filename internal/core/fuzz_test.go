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
// FIFO-coupled driver and under the default dispatch rule (the frame
// stream, on GOMAXPROCS workers and on one). An artifact holds one frame,
// so the remaining legs run on the input's first frame, against the
// reference's run of it: replaying a memoized artifact with footprint
// streams, replaying a spans-only artifact (timed live), and replaying a
// spans-only artifact probed for two geometries, from which every machine
// times with the miss stream of its own: the input's stream shared by
// machines on both drivers and at a second bus ratio and buffer depth, the
// other timing a machine of the second geometry. A pure-scan machine never
// probes, so the walk skips it, and its own legs time the probed artifact
// alone, as in the planner. With record set, every run also records an
// auto-interval flight trace, which must match the reference's byte for
// byte too. Every run
// must conserve the fragments a single node draws and hold the model's
// physical invariants (checkInvariants). The same input, with degenerate
// and off-screen triangles mixed into the scene, also holds sort-last in
// both assignments and, on block inputs, the dynamic tile queue in both
// orders to their hand-written references.
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
		// run returns the encoded results of frames, checked against the
		// physical invariants, and, with record set, its trace.
		run := func(cfg Config, frames []*trace.Scene, a *RasterArtifact, force func(*Machine)) (string, string) {
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
		type leg struct {
			name  string
			a     *RasterArtifact
			force func(*Machine)
		}
		check := func(frames []*trace.Scene, want, wantTrace string, legs []leg) {
			t.Helper()
			for _, p := range legs {
				got, tr := run(cfg, frames, p.a, p.force)
				if got != want {
					t.Errorf("%s diverged from the reference\nreference: %s\n%s: %s", p.name, want, p.name, got)
				}
				if tr != wantTrace {
					t.Errorf("%s: flight trace diverged from the reference (%d vs %d bytes)", p.name, len(tr), len(wantTrace))
				}
			}
		}

		want, wantTrace := run(cfg, frames, nil, forceOracle)
		check(frames, want, wantTrace, []leg{
			{"forced coupled", nil, forceCoupled},
			{"default dispatch", nil, nil},
			{"default dispatch, one worker", nil, func(m *Machine) { m.SetNodeParallelism(1) }},
		})

		one := frames[:1]
		want1, wantTrace1 := want, wantTrace
		if len(frames) > 1 {
			want1, wantTrace1 = run(cfg, one, nil, forceOracle)
		}
		cfgd := cfg.withDefaults()
		a, err := BuildRasterArtifact(context.Background(), one, cfgd.Procs,
			cfgd.Distribution, cfgd.TileSize, ArtifactOpts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		spans, err := BuildRasterArtifact(context.Background(), one, cfgd.Procs,
			cfgd.Distribution, cfgd.TileSize, ArtifactOpts{Workers: 2, SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		// The second geometry toggles the L2, or on a pure-scan machine
		// moves to a finite bus, so it always probes.
		second := cfg
		if cfg.HasL2() {
			second.L2Config, second.MainBus = cache.Config{}, memory.BusConfig{}
		} else {
			second.L2Config, second.MainBus = l2Config(), memory.BusConfig{TexelsPerCycle: 1}
		}
		wantWalked := 2
		if cfg.missGeometry().pureScan {
			second.Bus.TexelsPerCycle = 2
			wantWalked = 1
		}
		probed, walked, err := BuildMissStreams(context.Background(), spans, []Config{cfg, second}, 2)
		if err != nil || walked != wantWalked {
			t.Fatalf("walked %d geometries (%v), want %d", walked, err, wantWalked)
		}
		check(one, want1, wantTrace1, []leg{
			{"memoized artifact", a, nil},
			{"spans-only artifact", spans, nil},
			{"probed artifact", probed, nil},
			{"probed artifact, forced coupled", probed, forceCoupled},
		})

		// The probed artifact times another bus ratio and buffer depth: from
		// the input's stream while the cache geometry stays the same, and
		// live when the ratio takes a pure-scan machine off its regime.
		other := cfg
		other.Bus.TexelsPerCycle = []float64{3, 0.25}[bus%2]
		other.TriangleBuffer = 1 + int(buffer/3)%10000
		wantOther, wantOtherTrace := run(other, one, nil, forceOracle)
		if got, tr := run(other, one, probed, nil); got != wantOther || tr != wantOtherTrace {
			t.Errorf("probed artifact at bus %v, buffer %d diverged from the reference\nreference: %s\nprobed:    %s",
				other.Bus.TexelsPerCycle, other.TriangleBuffer, wantOther, got)
		}
		// The walk's other stream times the second geometry.
		want2, wantTrace2 := run(second, one, nil, forceOracle)
		if got, tr := run(second, one, probed, nil); got != want2 || tr != wantTrace2 {
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

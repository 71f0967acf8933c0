package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// TestMissStreamSharedAcrossTimingConfigs is the probe-once-time-many
// contract: one miss stream per cache geometry, built once, attached to
// machines that differ in everything else — bus ratio (non-integral line
// costs included), triangle buffer (overfull FIFOs included), setup cost,
// prefetch depth, node workers, a flight recorder — gives every frame of a
// sequence the results, and the flight trace, of building each frame in
// memory.
func TestMissStreamSharedAcrossTimingConfigs(t *testing.T) {
	base := benchSceneFor(t, "room3", 0.1)
	frames := scene.PanSequence(base, 3, 2, 1)
	geoms := []struct {
		name string
		cfg  Config
	}{
		{"paper", Config{}},
		{"4k+l2", Config{CacheConfig: cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64},
			L2Config: cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}, MainBus: memory.BusConfig{TexelsPerCycle: 0.5}}},
		{"none", Config{CacheKind: CacheNone}},
		{"perfect", Config{CacheKind: CachePerfect, Bus: memory.BusConfig{TexelsPerCycle: 1}}},
		{"pure scan", Config{CacheKind: CachePerfect}},
	}
	timings := []struct {
		name string
		set  func(*Config)
	}{
		{"as built", func(*Config) {}},
		{"bus 3", func(c *Config) { c.Bus.TexelsPerCycle = 3 }},
		{"bus 0.5 buffer 2", func(c *Config) { c.Bus.TexelsPerCycle = 0.5; c.TriangleBuffer = 2 }},
		{"setup 40 prefetch 4", func(c *Config) { c.SetupCycles = 40; c.PrefetchDepth = 4 }},
	}
	for _, g := range geoms {
		cfg := g.cfg
		cfg.Procs, cfg.Distribution, cfg.TileSize = 4, distrib.BlockKind, 8
		a, err := BuildRasterArtifact(context.Background(), frames, 4, distrib.BlockKind, 8, ArtifactOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := BuildMissStreams(context.Background(), a, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range timings {
			c := cfg
			tc.set(&c)
			if c.MissGeometry() != cfg.MissGeometry() {
				continue // the timing change left the stream's geometry (pure scan on a finite bus)
			}
			for _, record := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/flight=%v", g.name, tc.name, record), func(t *testing.T) {
					run := func(a *RasterArtifact, ms *MissStreams, nodePar int) (string, string) {
						m, err := NewMachine(frames[0], c)
						if err != nil {
							t.Fatal(err)
						}
						m.SetNodeParallelism(nodePar)
						if err := m.SetRasterArtifact(a); err != nil {
							t.Fatal(err)
						}
						if err := m.SetMissStreams(ms); err != nil {
							t.Fatal(err)
						}
						var rec *flight.Recorder
						if record {
							rec = m.EnableFlightRecorder(0)
						}
						rs, err := m.RunSequence(frames)
						if err != nil {
							t.Fatal(err)
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
					want, wantTrace := run(nil, nil, 1)
					for _, nodePar := range []int{1, 2} {
						got, tr := run(a, ms, nodePar)
						if got != want {
							t.Errorf("%d workers: stream replay diverged\nin memory: %s\nstream:    %s", nodePar, want, got)
						}
						if tr != wantTrace {
							t.Errorf("%d workers: stream replay's flight trace diverged (%d vs %d bytes)", nodePar, len(tr), len(wantTrace))
						}
					}
				})
			}
		}
	}
}

// TestMissStreamRejectsMismatch: SetMissStreams accepts only streams built
// from the attached artifact for the machine's cache geometry, and
// BuildMissStreams refuses a spans-only artifact for a machine that probes.
func TestMissStreamRejectsMismatch(t *testing.T) {
	s := testScene(5, 30, 64)
	frames := []*trace.Scene{s}
	build := func(procs int, opts ArtifactOpts) *RasterArtifact {
		a, err := BuildRasterArtifact(context.Background(), frames, procs, distrib.BlockKind, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cfg := Config{Procs: 2, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	a, other := build(2, ArtifactOpts{}), build(2, ArtifactOpts{})
	ms, err := BuildMissStreams(context.Background(), a, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.nodes[0].ops)+len(ms.nodes[1].ops) == 0 {
		t.Fatal("a real cache's stream holds no ops")
	}
	machine := func(cfg Config, a *RasterArtifact) *Machine {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		m    *Machine
		want string
	}{
		{"no artifact", machine(cfg, nil), "artifact attached first"},
		{"other artifact", machine(cfg, other), "another raster artifact"},
		{"cache size", machine(Config{Procs: 2, CacheConfig: cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}}, a), "cache geometry"},
		{"cache kind", machine(Config{Procs: 2, CacheKind: CacheNone}, a), "cache geometry"},
		{"l2", machine(Config{Procs: 2, L2Config: l2Config()}, a), "cache geometry"},
		{"pure scan", machine(Config{Procs: 2, CacheKind: CachePerfect}, a), "cache geometry"},
	} {
		err := tc.m.SetMissStreams(ms)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SetMissStreams = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// Equal geometries share: another bus and buffer take the stream.
	if err := machine(Config{Procs: 2, Bus: memory.BusConfig{TexelsPerCycle: 3}, TriangleBuffer: 2}, a).SetMissStreams(ms); err != nil {
		t.Errorf("stream refused by a machine of the same geometry: %v", err)
	}
	if _, err := BuildMissStreams(context.Background(), build(2, ArtifactOpts{SpansOnly: true}), cfg, 0); err == nil {
		t.Error("a real cache probed a spans-only artifact")
	}
	if _, err := BuildMissStreams(context.Background(), a, Config{Procs: 4}, 0); err == nil {
		t.Error("a 2-node artifact was probed for 4 nodes")
	}
	// Re-attaching another artifact drops the streams.
	m := machine(cfg, a)
	if err := m.SetMissStreams(ms); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(other); err != nil {
		t.Fatal(err)
	}
	if m.streams != nil {
		t.Error("streams of the old artifact survived attaching another")
	}
}

// TestMissStreamCompact: on a benchmark scene at the paper's cache, a
// stream holds far fewer ops than fragments — most fragments hit, and a run
// of hits is one op.
func TestMissStreamCompact(t *testing.T) {
	s := benchSceneFor(t, "massive11255", 0.2)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 16, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := BuildMissStreams(context.Background(), a, Config{Procs: 16, Bus: memory.BusConfig{TexelsPerCycle: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	frags, ops := 0, 0
	for _, tri := range a.Frames[0].Tris {
		for _, d := range tri.Dests {
			frags += d.Work.Frags()
		}
	}
	for _, ns := range ms.nodes {
		ops += len(ns.ops)
	}
	if ops == 0 || ops*4 > frags {
		t.Errorf("%d ops for %d fragments, want under a quarter", ops, frags)
	}
}

// TestMissStreamConcurrentMachines: a stream is read-only once built, so
// machines on concurrent goroutines — each replaying its nodes on two
// workers — may time from it at once (run under -race).
func TestMissStreamConcurrentMachines(t *testing.T) {
	s := testScene(9, 60, 96)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(context.Background(), frames, 8, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := BuildMissStreams(context.Background(), a, Config{Procs: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	buses := []float64{0.5, 1, 2, 3}
	got := make([]string, len(buses))
	var wg sync.WaitGroup
	for i, bus := range buses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMachine(s, Config{Procs: 8, Bus: memory.BusConfig{TexelsPerCycle: bus}})
			if err != nil {
				t.Error(err)
				return
			}
			m.SetNodeParallelism(2)
			if err := m.SetRasterArtifact(a); err != nil {
				t.Error(err)
				return
			}
			if err := m.SetMissStreams(ms); err != nil {
				t.Error(err)
				return
			}
			res, err := m.RunContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			js, _ := json.Marshal(res)
			got[i] = string(js)
		}()
	}
	wg.Wait()
	for i, bus := range buses {
		res, err := SimulateContext(context.Background(), s, Config{Procs: 8, Bus: memory.BusConfig{TexelsPerCycle: bus}})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(res); got[i] != string(want) {
			t.Errorf("bus %v: concurrent stream replay diverged\nin memory: %s\nstream:    %s", bus, want, got[i])
		}
	}
}

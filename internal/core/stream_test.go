package core

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// checkStreamed fails the test unless frames, streamed under cfg at node
// parallelism 1 and 3, give the whole results and, with record set, the
// flight trace of two references: the forced FIFO-coupled driver, and the
// same machine replaying a spans-only raster artifact of a single frame or,
// since an artifact holds one frame, the event-driven reference run of a
// sequence.
func checkStreamed(t *testing.T, frames []*trace.Scene, cfg Config, record bool) {
	t.Helper()
	run := func(nodePar int, a *RasterArtifact, force func(*Machine)) string {
		m, err := NewMachine(frames[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if force != nil {
			force(m)
		}
		m.SetNodeParallelism(nodePar)
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
		js, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			return string(js)
		}
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		return string(js) + "\n" + string(tr)
	}
	cfgd := cfg.withDefaults()
	var ref string
	if len(frames) == 1 {
		a, err := BuildRasterArtifact(context.Background(), frames, cfgd.Procs,
			cfgd.Distribution, cfgd.TileSize, ArtifactOpts{Workers: 1, SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		ref = run(1, a, nil)
	} else {
		ref = run(1, nil, forceOracle)
	}
	coupled := run(1, nil, forceCoupled)
	if coupled != ref {
		t.Errorf("%s: the forced coupled driver disagrees with the reference\nreference: %s\ncoupled:   %s",
			cfgd.Name(), ref, coupled)
	}
	for _, nodePar := range []int{1, 3} {
		if got := run(nodePar, nil, nil); got != ref {
			t.Errorf("%s, %d workers: the streamed run disagrees with the reference\nreference: %s\nstreamed:  %s",
				cfgd.Name(), nodePar, ref, got)
		}
	}
}

// TestStreamedFrameMatchesArtifact pins the stream's equivalence contract
// (stream.go) over the Table 1 scenes at scale 0.1, each a parallel
// subtest: block, SLI and skewed block on 1, 4, 16 and 64 nodes, each of
// the 84 (scene, distribution, nodes) triples running a rotating
// eighteenth of the triangle buffer (1, 20, 10000) × cache (real, perfect,
// none) × bus (infinite, 1 and 3 texels per cycle) grid, so every cell
// runs somewhere and each distribution runs about two thirds of them.
// Every third leg is flight-recorded, and one leg with an L2 and a
// two-frame sequence ride on top. A ratio-3 bus makes completions
// fractional, so the ceiling of every pop matters.
func TestStreamedFrameMatchesArtifact(t *testing.T) {
	dists := []struct {
		kind distrib.Kind
		tile int
	}{
		{distrib.BlockKind, 16},
		{distrib.SLIKind, 2},
		{distrib.BlockSkewedKind, 8},
	}
	for si, name := range scene.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := benchSceneFor(t, name, 0.1)
			pair, leg := 12*si, 0
			for _, d := range dists {
				for _, procs := range []int{1, 4, 16, 64} {
					pair++
					cell := 0
					for _, buffer := range []int{1, 20, 10000} {
						for _, ck := range []CacheKind{CacheReal, CachePerfect, CacheNone} {
							for _, bus := range []float64{0, 1, 3} {
								if cell++; (cell+pair)%18 != 0 {
									continue
								}
								leg++
								checkStreamed(t, []*trace.Scene{s}, Config{
									Procs: procs, Distribution: d.kind, TileSize: d.tile,
									CacheKind: ck, Bus: memory.BusConfig{TexelsPerCycle: bus},
									TriangleBuffer: buffer,
								}, leg%3 == 0)
							}
						}
					}
				}
			}
		})
	}
	t.Run("L2", func(t *testing.T) {
		t.Parallel()
		checkStreamed(t, []*trace.Scene{benchSceneFor(t, "blowout775", 0.1)}, Config{
			Procs: 16, L2Config: l2Config(),
			Bus:     memory.BusConfig{TexelsPerCycle: 2},
			MainBus: memory.BusConfig{TexelsPerCycle: 1},
		}, false)
	})
	t.Run("sequence", func(t *testing.T) {
		t.Parallel()
		frames := scene.PanSequence(benchSceneFor(t, "room3", 0.1), 2, 3, 1)
		for _, buffer := range []int{20, 10000} {
			checkStreamed(t, frames, Config{Procs: 4, TileSize: 8, TriangleBuffer: buffer,
				Bus: memory.BusConfig{TexelsPerCycle: 1}}, false)
		}
	})
}

// TestLiveFrameStoresNoWorkList pins the stream's memory property: a live
// run of a paper-scale frame allocates a small fraction of the work list
// the same frame takes stored. Building the frame in memory before timing
// it allocated more than the whole list (its perNode index on top). The
// sort-last machine streams too: its run must allocate a small fraction of
// the same frame's one-node work list. What a streamed run does
// allocate is mostly each engine's op scratch, which grows to the largest
// triangle the engine times (about 25 KB per engine for sort-last's whole
// triangles here), so the sort-last leg runs 4 engines.
func TestLiveFrameStoresNoWorkList(t *testing.T) {
	s := benchSceneFor(t, "truc640", 0.25)
	for _, c := range []struct {
		name      string
		listNodes int // the node count of the stored work list the run is held to
		machine   func() (*Machine, error)
	}{
		{"sort-middle", 64, func() (*Machine, error) {
			return NewMachine(s, Config{Procs: 64, Distribution: distrib.BlockKind, TileSize: 16})
		}},
		{"sort-last", 1, func() (*Machine, error) {
			return newSortLastMachine(s, Config{Procs: 4}, SortLastChunked)
		}},
	} {
		a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, c.listNodes,
			distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.machine()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Run()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: live run allocated %d bytes; the stored work list takes %d", c.name, alloc, a.Bytes())
		if 4*alloc >= uint64(a.Bytes()) {
			t.Errorf("%s: live run allocated %d bytes, want less than a quarter of the %d-byte work list",
				c.name, alloc, a.Bytes())
		}
	}
}

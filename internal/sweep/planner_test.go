package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/resultcache"
	"repro/internal/scene"
)

// runMemoPair runs the spec with and without memoization and fails unless
// the rows (and flights) are byte-identical after JSON encoding. It returns
// both plan stats.
func runMemoPair(t *testing.T, spec Spec, opts RunOpts) (memo, plain PlanStats) {
	t.Helper()
	o := opts
	o.NoMemo = false
	o.Plan = &memo
	withMemo, err := RunWith(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	o.NoMemo = true
	o.Plan = &plain
	without, err := RunWith(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := json.Marshal(without)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, err := json.Marshal(withMemo)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJS) != string(gotJS) {
		t.Errorf("memoized sweep diverged\nplain: %s\nmemo:  %s", wantJS, gotJS)
	}
	return memo, plain
}

// TestPlannerEquivalenceMatrix pins the memoization contract over two scenes,
// all three distributions and a dense cache axis: the planner must change
// wall-clock only, never a byte of output.
func TestPlannerEquivalenceMatrix(t *testing.T) {
	for _, sceneName := range []string{"truc640", "room3"} {
		for _, dist := range []string{"block", "sli", "blockskewed"} {
			spec := Spec{
				Scene:  sceneName,
				Scale:  0.1,
				Dist:   dist,
				Procs:  []int{1, 4},
				Sizes:  []int{8},
				Caches: []int{1, 2, 4, 8, 16},
				Bus:    2,
			}
			memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 4})
			// 10 points + 5 baselines in 2 classes: (1,8) and (4,8).
			if memo.Points != 10 || memo.Baselines != 5 || memo.Classes != 2 {
				t.Errorf("%s/%s: plan = %+v", sceneName, dist, memo)
			}
			// Each memoized class walks its artifact once for all 5 cache
			// sizes: class (1,8) for its points and baselines, class (4,8)
			// for its points, one member per size.
			if memo.Rasterizations != 2 || memo.Saved != 13 || memo.Probes != 2 || !memo.Memoized {
				t.Errorf("%s/%s: memoized plan = %+v", sceneName, dist, memo)
			}
			if plain.Rasterizations != 15 || plain.Saved != 0 || plain.Probes != 0 || plain.Memoized {
				t.Errorf("%s/%s: plain plan = %+v", sceneName, dist, plain)
			}
			if memo.Rasterizations >= plain.Rasterizations {
				t.Errorf("%s/%s: memoization saved nothing: %d vs %d",
					sceneName, dist, memo.Rasterizations, plain.Rasterizations)
			}
		}
	}
}

// TestPlannerOneProcessorClass pins the 1-processor class: memoized, every
// 1-processor point runs as its combo's baseline machine, so the spec's 4
// baselines and 12 1-processor points share the one (1, 4) class beside the
// three 4-processor classes. Rows and flights match the unmemoized run, in
// which every point keeps its own tile size, and rows an unmemoized run
// checkpointed restore into a memoized one byte for byte. The no-cache
// machine folds the same way.
func TestPlannerOneProcessorClass(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.1,
		Procs:   []int{1, 4},
		Sizes:   []int{4, 8, 16},
		Caches:  []int{4, 16},
		Buffers: []int{1, 10000},
	}
	for _, fl := range []bool{false, true} {
		spec.Flight = fl
		memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 2})
		wantMemo := PlanStats{Points: 24, Baselines: 4, Classes: 4, Rasterizations: 4, Saved: 24, Probes: 4, Memoized: true}
		if memo != wantMemo {
			t.Errorf("flight %v: memoized plan = %+v, want %+v", fl, memo, wantMemo)
		}
		wantPlain := PlanStats{Points: 24, Baselines: 4, Classes: 6, Rasterizations: 28}
		if plain != wantPlain {
			t.Errorf("flight %v: unmemoized plan = %+v, want %+v", fl, plain, wantPlain)
		}
	}
	// The no-cache machine folds its 1-processor points the same way.
	none := Spec{Scene: spec.Scene, Scale: spec.Scale, Cache: "none",
		Procs: spec.Procs, Sizes: spec.Sizes, Buffers: spec.Buffers, Flight: true}
	memo, plain := runMemoPair(t, none, RunOpts{Parallelism: 2})
	if want := (PlanStats{Points: 12, Baselines: 2, Classes: 4, Rasterizations: 4, Saved: 10, Probes: 4, Memoized: true}); memo != want {
		t.Errorf("no cache: memoized plan = %+v, want %+v", memo, want)
	}
	if want := (PlanStats{Points: 12, Baselines: 2, Classes: 6, Rasterizations: 14}); plain != want {
		t.Errorf("no cache: unmemoized plan = %+v, want %+v", plain, want)
	}

	spec.Flight = false
	want, err := RunWith(context.Background(), spec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// An unmemoized run of the 1-processor rows banks them and the
	// baselines; the memoized full sweep restores both and runs only the
	// 4-processor points.
	store := newMemRows()
	ones := spec
	ones.Procs = []int{1}
	if _, err := RunWith(context.Background(), ones, RunOpts{Parallelism: 2, NoMemo: true, Rows: store}); err != nil {
		t.Fatal(err)
	}
	var stats PlanStats
	got, err := RunWith(context.Background(), spec, RunOpts{Parallelism: 2, Rows: store, Plan: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpointed != 16 || stats.Classes != 3 {
		t.Errorf("resumed plan = %+v, want 12 rows and 4 baselines restored, 3 classes run", stats)
	}
	if a, b := marshalResult(t, want), marshalResult(t, got); !bytes.Equal(a, b) {
		t.Errorf("restored sweep differs\nwant %s\ngot  %s", a, b)
	}
}

// TestPlannerBusBufferAxes covers the other two dense axes (and their
// combination) on the memoization contract.
func TestPlannerBusBufferAxes(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.1,
		Procs:   []int{4},
		Sizes:   []int{8, 16},
		Buses:   []float64{0, 1, 2},
		Buffers: []int{16, 20000},
	}
	memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 4})
	// 12 points + 6 baselines in 3 classes: (1,8), (4,8), (4,16), each
	// walking its one cache geometry once.
	if memo.Points != 12 || memo.Baselines != 6 || memo.Classes != 3 || memo.Rasterizations != 3 || memo.Probes != 3 {
		t.Errorf("plan = %+v", memo)
	}
}

// TestPlannerProbesOncePerCacheGeometry pins the plan of a cache x bus x
// buffer sweep (the benchmark's axes workload): 72 points and 18 baselines,
// 90 simulations in 5 raster classes, each class probing its 3 cache
// geometries once in one walk — 5 probe walks, where every simulation used
// to probe — with rows byte-identical to the unmemoized run. It logs the
// bytes of every class of points' artifact, miss streams included.
func TestPlannerProbesOncePerCacheGeometry(t *testing.T) {
	spec := Spec{Scene: "massive11255", Scale: 0.2, Dist: "block",
		Procs: []int{16, 64}, Sizes: []int{8, 16},
		Caches: []int{4, 16, 64}, Buses: []float64{0.5, 1, 2},
		Buffers: []int{20, 10000}}
	memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 2})
	if memo.Points+memo.Baselines != 90 || memo.Classes != 5 || memo.Rasterizations != 5 || memo.Probes != 5 {
		t.Errorf("memoized plan = %+v, want 90 simulations in 5 classes, 5 rasterizations, 5 probe walks", memo)
	}
	if plain.Probes != 0 {
		t.Errorf("unmemoized plan = %+v, want no probe walks", plain)
	}
	for _, procs := range spec.Procs {
		for _, size := range spec.Sizes {
			art := acquireClass(t, spec, procs, size, 2)
			t.Logf("class (%d, %d): artifact with %d cache geometries' miss streams %.2f MiB",
				procs, size, len(spec.Caches), float64(art.Bytes())/(1<<20))
		}
	}
}

// acquireClass plans spec's class (procs, size) alone — one member per
// point of its cache, bus and buffer axes — and acquires and releases it
// as the sweep does, on workers goroutines. It checks that the members
// share one artifact, that the class's walk covered every cache size of
// the spec, and that the last release drops the artifact. It returns the
// artifact.
func acquireClass(t *testing.T, spec Spec, procs, size, workers int) *core.RasterArtifact {
	t.Helper()
	b, err := scene.ByName(spec.Scene, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dk, err := distKind(spec.Dist)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlan(true)
	var cfgs []core.Config
	for _, kb := range spec.Caches {
		for _, bus := range spec.Buses {
			for _, buf := range spec.Buffers {
				cfg := core.Config{Procs: procs, Distribution: dk, TileSize: size,
					CacheConfig: cacheConfigKB(kb), Bus: memory.BusConfig{TexelsPerCycle: bus}, TriangleBuffer: buf}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	var cs *classState
	for _, cfg := range cfgs {
		cs = pl.add(spec, cfg)
	}
	pl.seal(len(cfgs), 0)
	var art *core.RasterArtifact
	for range cfgs {
		a, err := cs.acquire(context.Background(), sc, dk, workers)
		if err != nil {
			t.Fatal(err)
		}
		if art != nil && a != art {
			t.Fatal("two members of one class got two artifacts")
		}
		art = a
	}
	if cs.geoms != len(spec.Caches) {
		t.Errorf("the class's walk covered %d cache geometries, want one per cache size: %d", cs.geoms, len(spec.Caches))
	}
	for range cfgs {
		if cs.art == nil {
			t.Fatal("the class dropped its artifact before its last member released it")
		}
		cs.release()
	}
	if cs.art != nil {
		t.Error("the class kept its artifact after its last member released it")
	}
	return art
}

// TestPlannerClassStoresNoFootprints pins the memory of a memoized class:
// its artifact holds segments only, no footprint run, beside the miss
// streams of its one walk, which covers each cache size of the class.
func TestPlannerClassStoresNoFootprints(t *testing.T) {
	spec := Spec{Scene: "truc640", Scale: 0.2, Dist: "block",
		Caches: []int{4, 16}, Buses: []float64{1, 2}, Buffers: []int{16}}
	for _, workers := range []int{1, 2} {
		art := acquireClass(t, spec, 4, 8, workers)
		if art.HasFootprints {
			t.Error("a memoized class built footprint streams")
		}
		for _, f := range art.Frames {
			for _, tri := range f.Tris {
				for _, d := range tri.Dests {
					if d.Work.Reps != nil || d.Work.Addrs != nil {
						t.Fatalf("a memoized class's artifact holds %d footprint runs", len(d.Work.Reps))
					}
				}
			}
		}
	}
}

// TestPlannerPerfectCacheSpansOnly: a pure-scan sweep (perfect cache,
// infinite bus) memoizes through the spans-only artifact without a probe
// walk and still matches the unmemoized run byte for byte.
func TestPlannerPerfectCacheSpansOnly(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.2,
		Procs:   []int{4},
		Sizes:   []int{8},
		Cache:   "perfect",
		Buffers: []int{16, 64, 20000},
	}
	memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 2})
	if memo.Rasterizations != 2 || memo.Probes != 0 { // classes (1,8) and (4,8)
		t.Errorf("plan = %+v", memo)
	}
}

// TestPlannerFlightSweepMemoizes: the flight recorder forces the
// FIFO-coupled driver, whose replay must also be byte-identical, recordings
// included.
func TestPlannerFlightSweepMemoizes(t *testing.T) {
	spec := Spec{
		Scene:  "truc640",
		Scale:  0.1,
		Procs:  []int{2},
		Sizes:  []int{8},
		Caches: []int{4, 16},
		Flight: true,
	}
	runMemoPair(t, spec, RunOpts{Parallelism: 2})
}

// TestRasterClassKeySeparation: classing must never group configurations
// that differ in any raster-relevant field, and must group ones that differ
// only in cache, bus, buffer or flight settings.
func TestRasterClassKeySeparation(t *testing.T) {
	base := Spec{Scene: "truc640", Scale: 0.2, Dist: "block"}
	key := base.RasterClassKey(4, 8)
	if key == "" {
		t.Fatal("empty class key")
	}
	distinct := map[string]string{
		"scene":      Spec{Scene: "room3", Scale: 0.2, Dist: "block"}.RasterClassKey(4, 8),
		"resolution": Spec{Scene: "truc640", Scale: 0.4, Dist: "block"}.RasterClassKey(4, 8),
		"dist":       Spec{Scene: "truc640", Scale: 0.2, Dist: "sli"}.RasterClassKey(4, 8),
		"procs":      base.RasterClassKey(8, 8),
		"size":       base.RasterClassKey(4, 16),
	}
	for field, got := range distinct {
		if got == key {
			t.Errorf("configs differing in %s share a raster class", field)
		}
	}
	same := base
	same.Cache = "none"
	same.Bus = 2
	same.Buffer = 64
	same.Flight = true
	same.Caches = nil
	if got := same.RasterClassKey(4, 8); got != key {
		t.Error("configs differing only in non-raster fields split classes")
	}
}

// TestAxisValidation pins the new axis rules: positive cache sizes with a
// valid geometry, the real cache model, and mutual exclusion with the
// scalar fields.
func TestAxisValidation(t *testing.T) {
	bad := []Spec{
		{Scene: "truc640", Caches: []int{0}},
		{Scene: "truc640", Caches: []int{3}}, // 12 sets: not a power of two
		{Scene: "truc640", Cache: "perfect", Caches: []int{16}},
		{Scene: "truc640", Bus: 1, Buses: []float64{2}},
		{Scene: "truc640", Buses: []float64{-1}},
		{Scene: "truc640", Buffer: 16, Buffers: []int{32}},
		{Scene: "truc640", Buffers: []int{0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Scene: "truc640", Caches: []int{1, 4, 64}, Buses: []float64{0, 2}, Buffers: []int{8}}
	if err := good.Validate(); err != nil {
		t.Errorf("axis spec rejected: %v", err)
	}
}

// TestAxisRowShape: axis sweeps carry the echo columns in row JSON and CSV;
// axis-free sweeps keep their historical bytes.
func TestAxisRowShape(t *testing.T) {
	spec := Spec{
		Scene:  "truc640",
		Scale:  0.2,
		Procs:  []int{2},
		Sizes:  []int{8},
		Caches: []int{4, 16},
		Bus:    0.5, // finite: cache size must show up in cycles
	}
	res, err := RunWith(context.Background(), spec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0].CacheKB != 4 || res.Rows[1].CacheKB != 16 {
		t.Errorf("cache axis not echoed: %+v", res.Rows)
	}
	if res.Rows[0].Cycles <= res.Rows[1].Cycles {
		t.Errorf("bigger cache not faster: %+v", res.Rows)
	}
	js, err := json.Marshal(res.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"cache_kb":4`) {
		t.Errorf("row JSON lacks cache_kb: %s", js)
	}

	var buf strings.Builder
	if err := WriteCSV(&buf, res.Rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[0], ",cache_kb,bus,buffer") {
		t.Errorf("axis CSV header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",4,0,0") {
		t.Errorf("axis CSV row = %q", lines[1])
	}

	// Axis-free rows: no echo fields in JSON, base CSV header.
	plain, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	js, err = json.Marshal(plain.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cache_kb", `"bus"`, `"buffer"`} {
		if strings.Contains(string(js), field) {
			t.Errorf("axis-free row JSON contains %s: %s", field, js)
		}
	}
}

// TestPointHashDistinguishesAxes: row hashes must differ for points
// sharing (procs, size) but differing on an axis, and an axis-free row's
// hash must stay the result-cache key of the equivalent single-point spec.
func TestPointHashDistinguishesAxes(t *testing.T) {
	spec := Spec{Scene: "truc640", Caches: []int{4, 16}}
	a := spec.RowHash(Row{Procs: 4, Size: 8, CacheKB: 4})
	b := spec.RowHash(Row{Procs: 4, Size: 8, CacheKB: 16})
	if a == b {
		t.Error("points differing in cache size share a hash")
	}
	single := Spec{Scene: "truc640", Procs: []int{4}, Sizes: []int{8}}
	want, err := resultcache.Key(single.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := (Spec{Scene: "truc640"}).RowHash(Row{Procs: 4, Size: 8}); got != want {
		t.Errorf("axis-free row hash %s, want the single-point spec's cache key %s", got, want)
	}
}

// TestRunWithPlanStatsOptional: a nil Plan out-param stays nil-safe, and
// Result.Plan is never set by RunWith itself.
func TestRunWithPlanStatsOptional(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Error("RunWith set Result.Plan; plan stats must stay out of cacheable results")
	}
	var stats PlanStats
	res2, err := RunWith(context.Background(), tinySpec, RunOpts{Plan: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(res2.Rows) || stats.Classes == 0 {
		t.Errorf("plan stats not populated: %+v", stats)
	}
	if !reflect.DeepEqual(res.Rows, res2.Rows) {
		t.Error("requesting plan stats changed the rows")
	}
}

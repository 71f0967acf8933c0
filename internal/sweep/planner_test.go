package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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
			// Each class probes each of the 5 cache sizes once.
			if memo.Rasterizations != 2 || memo.Saved != 13 || memo.Probes != 10 || !memo.Memoized {
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
	// probing its one cache geometry once.
	if memo.Points != 12 || memo.Baselines != 6 || memo.Classes != 3 || memo.Rasterizations != 3 || memo.Probes != 3 {
		t.Errorf("plan = %+v", memo)
	}
}

// TestPlannerProbesOncePerCacheGeometry pins the plan of a cache x bus x
// buffer sweep (the benchmark's axes workload): 72 points and 18 baselines,
// 90 simulations in 5 raster classes, each class probing its 3 cache
// geometries once — 15 probe passes, where every simulation used to probe
// — with rows byte-identical to the unmemoized run.
func TestPlannerProbesOncePerCacheGeometry(t *testing.T) {
	spec := Spec{Scene: "massive11255", Scale: 0.2, Dist: "block",
		Procs: []int{16, 64}, Sizes: []int{8, 16},
		Caches: []int{4, 16, 64}, Buses: []float64{0.5, 1, 2},
		Buffers: []int{20, 10000}}
	memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 2})
	if memo.Points+memo.Baselines != 90 || memo.Classes != 5 || memo.Rasterizations != 5 || memo.Probes != 15 {
		t.Errorf("memoized plan = %+v, want 90 simulations in 5 classes, 5 rasterizations, 15 probes", memo)
	}
	if plain.Probes != 0 {
		t.Errorf("unmemoized plan = %+v, want no probe passes", plain)
	}
}

// TestPlannerPerfectCacheSpansOnly: a pure-scan sweep (perfect cache,
// infinite bus) memoizes through the cheaper spans-only artifact and still
// matches the unmemoized run byte for byte.
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
	if memo.Rasterizations != 2 { // classes (1,8) and (4,8)
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

// TestPointHashDistinguishesAxes: progress hashes must differ for points
// sharing (procs, size) but differing on an axis, and RowHash must keep its
// historical value for axis-free specs.
func TestPointHashDistinguishesAxes(t *testing.T) {
	spec := Spec{Scene: "truc640", Caches: []int{4, 16}}
	a := spec.pointHash(point{procs: 4, size: 8, cacheKB: 4})
	b := spec.pointHash(point{procs: 4, size: 8, cacheKB: 16})
	if a == b {
		t.Error("points differing in cache size share a hash")
	}
	plain := Spec{Scene: "truc640"}
	if plain.pointHash(point{procs: 4, size: 8}) != plain.RowHash(4, 8) {
		t.Error("pointHash diverges from RowHash on an axis-free spec")
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

package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/scene"
)

// tinySpec keeps test sweeps fast: one small scene, four configurations.
var tinySpec = Spec{
	Scene: "truc640",
	Scale: 0.2,
	Procs: []int{1, 4},
	Sizes: []int{8, 16},
	Cache: "perfect",
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Scene: "nope"},
		{Scene: "truc640", Dist: "diagonal"},
		{Scene: "truc640", Cache: "huge"},
		{Scene: "truc640", Procs: []int{0}},
		{Scene: "truc640", Sizes: []int{-4}},
		{Scene: "truc640", Bus: -1},
		{Scene: "truc640", Buffer: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	if err := (Spec{Scene: "truc640"}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

// repeated returns n copies of v.
func repeated[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestValidateBounds: a spec's point count, processor counts and cache
// sizes are bounded, including a point count whose product would wrap.
func TestValidateBounds(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"procs at limit", Spec{Procs: []int{maxProcs}}, true},
		{"procs over limit", Spec{Procs: []int{maxProcs + 1}}, false},
		{"a billion procs", Spec{Procs: []int{1_000_000_000}}, false},
		{"cache at limit", Spec{Caches: []int{maxCacheKB}}, true},
		{"cache over limit", Spec{Caches: []int{2 * maxCacheKB}}, false},
		{"a petabyte cache", Spec{Caches: []int{1 << 40}}, false},
		{"points at limit", Spec{Procs: repeated(1, 64), Sizes: repeated(4, maxPoints/64)}, true},
		{"points over limit", Spec{Procs: repeated(1, maxPoints+1), Sizes: []int{4}}, false},
		{"points wrap to 0", Spec{Procs: repeated(1, 8192), Sizes: repeated(4, 8192),
			Caches: repeated(16, 8192), Buses: repeated(1.0, 8192), Buffers: repeated(1, 8192)}, false},
		{"default scale", Spec{Scale: 0}, true},
		{"scale at limit", Spec{Scale: scene.MaxScale}, true},
		{"negative scale", Spec{Scale: -1}, false},
		{"scale over limit", Spec{Scale: 5}, false},
		{"scale 100", Spec{Scale: 100}, false},
		{"NaN scale", Spec{Scale: math.NaN()}, false},
	}
	for _, c := range cases {
		c.spec.Scene = "truc640"
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRunRowShape(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// Deterministic procs-major order.
	wantOrder := [][2]int{{1, 8}, {1, 16}, {4, 8}, {4, 16}}
	for i, r := range res.Rows {
		if r.Procs != wantOrder[i][0] || r.Size != wantOrder[i][1] {
			t.Errorf("row %d = p%d/w%d, want p%d/w%d", i, r.Procs, r.Size,
				wantOrder[i][0], wantOrder[i][1])
		}
		if r.Cycles <= 0 || r.Speedup <= 0 {
			t.Errorf("row %d has non-positive cycles/speedup: %+v", i, r)
		}
	}
	// The 1-processor row against the baseline is speedup 1 by definition.
	if res.Rows[0].Speedup != 1 {
		t.Errorf("1-proc speedup = %v, want 1", res.Rows[0].Speedup)
	}
	if res.SimulatedCycles <= 0 {
		t.Error("SimulatedCycles not accumulated")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	seq, err := RunWith(context.Background(), tinySpec, RunOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := RunWith(context.Background(), tinySpec, RunOpts{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, parl.Rows) {
		t.Fatalf("parallel rows diverge:\nseq: %+v\npar: %+v", seq.Rows, parl.Rows)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWith(ctx, tinySpec, RunOpts{Parallelism: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res.Rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d CSV lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(CSVHeader, ",") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "truc640,block,1,8,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, back.Rows) {
		t.Fatal("rows did not survive the JSON round trip")
	}
	if back.Spec.Scene != "truc640" || back.Spec.Dist != "block" {
		t.Errorf("spec not embedded: %+v", back.Spec)
	}
}

func TestRunOptsNodeParallelism(t *testing.T) {
	cases := []struct {
		opts  RunOpts
		nJobs int
		want  int
	}{
		{RunOpts{}, 20, 0},                                   // sequential: machine default
		{RunOpts{Parallelism: 1}, 20, 0},                     // one worker: machine default
		{RunOpts{Parallelism: 8}, 20, 1},                     // jobs soak the budget
		{RunOpts{Parallelism: 8}, 2, 4},                      // spare budget goes to nodes
		{RunOpts{Parallelism: 16}, 1, 16},                    // one big config gets it all
		{RunOpts{Parallelism: 8, NodeParallelism: 1}, 2, 1},  // explicit one worker
		{RunOpts{Parallelism: 8, NodeParallelism: 3}, 20, 3}, // explicit bound wins
	}
	for i, c := range cases {
		if got := c.opts.nodeParallelism(c.nJobs); got != c.want {
			t.Errorf("case %d: nodeParallelism(%d) = %d, want %d", i, c.nJobs, got, c.want)
		}
	}
}

// TestRunOptsSharesCountOnlyRunningSimulations: baselines and points run in
// one pool on one worker share, counted over the simulations that still
// run. Restored points and unneeded or checkpointed baselines do not shrink
// it, and each baseline is dispatched just ahead of the first point that
// divides by it.
func TestRunOptsSharesCountOnlyRunningSimulations(t *testing.T) {
	opts := RunOpts{Parallelism: 4}
	// 72 points over two combos, alternating; 71 restored.
	points := make([]point, 72)
	for i := range points {
		points[i].combo = i % 2
	}
	share := func(haveBase, done []bool) int {
		return opts.nodeParallelism(len(simulations(points, haveBase, done)))
	}
	done := make([]bool, 72)
	for i := 0; i < len(done)-1; i++ {
		done[i] = true
	}
	// Combo 0 is unneeded (all its points restored); the last point and its
	// unfinished combo-1 baseline split the budget, two workers each.
	haveBase := []bool{false, false}
	if got := share(haveBase, done); got != 2 {
		t.Errorf("share = %d, want 2", got)
	}
	// With its baseline checkpointed, the last point gets it all.
	haveBase[1] = true
	if got := share(haveBase, done); got != 4 {
		t.Errorf("share with the baseline checkpointed = %d, want 4", got)
	}
	// Nothing restored: two baselines and 72 points soak the budget at one
	// worker each, each baseline just ahead of its first point.
	sims := simulations(points, []bool{false, false}, make([]bool, 72))
	want := []simulation{{baseline: true, i: 0}, {i: 0}, {baseline: true, i: 1}, {i: 1}, {i: 2}}
	if len(sims) != 74 || !slices.Equal(sims[:5], want) {
		t.Errorf("fresh pool: %d simulations starting %+v, want 74 starting %+v", len(sims), sims[:5], want)
	}
	for _, sim := range sims[4:] {
		if sim.baseline {
			t.Errorf("fresh pool dispatches baseline %d late", sim.i)
		}
	}
	if got := opts.nodeParallelism(len(sims)); got != 1 {
		t.Errorf("fresh share = %d, want 1", got)
	}
}

func TestNodeParallelismMatchesSequential(t *testing.T) {
	// Node parallelism must not change a single row: a sweep at any
	// NodeParallelism is byte-identical to the sequential one.
	want, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodePar := range []int{1, 4} {
		got, err := RunWith(context.Background(), tinySpec,
			RunOpts{Parallelism: 2, NodeParallelism: nodePar})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Errorf("node-par %d: rows differ\nwant %+v\ngot  %+v",
				nodePar, want.Rows, got.Rows)
		}
	}
}

// TestRowOnNonDyadicBus pins a row whose bus clock rounds: at 3 texels per
// cycle a line costs 16/3 cycles, so a bus clock that fused its product
// into the following add (one rounding where memory.Bus.Fetch's conversion
// demands two) moves this row by a whole cycle, to 61101.33. The goldens'
// buses are powers of two, whose line costs are exact, and at scales 0.1
// and 0.25 quake's row does not move, so neither catches a fused clock.
func TestRowOnNonDyadicBus(t *testing.T) {
	res, err := RunWith(context.Background(), Spec{Scene: "quake", Scale: 0.5, Procs: []int{16}, Sizes: []int{16}, Bus: 3}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r.Cycles != 61102.333333333336 || r.StallCycles != 304782.00000002974 {
		t.Errorf("quake at scale 0.5, 16 processors, block-16, bus 3: cycles %v, stall cycles %v; want 61102.333333333336 and 304782.00000002974",
			r.Cycles, r.StallCycles)
	}
}

package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
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

func TestRunRowShape(t *testing.T) {
	res, err := Run(context.Background(), tinySpec, 2)
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
	seq, err := Run(context.Background(), tinySpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	parl, err := Run(context.Background(), tinySpec, 8)
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
	if _, err := Run(ctx, tinySpec, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := Run(context.Background(), tinySpec, 2)
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
	res, err := Run(context.Background(), tinySpec, 2)
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
// it.
func TestRunOptsSharesCountOnlyRunningSimulations(t *testing.T) {
	opts := RunOpts{Parallelism: 4}
	share := func(needBase, haveBase, done []bool) int {
		return opts.nodeParallelism(len(simulations(needBase, haveBase, done)))
	}
	// 72 points, 71 restored.
	done := make([]bool, 72)
	for i := 1; i < len(done); i++ {
		done[i] = true
	}
	// Three combos: one unneeded, one checkpointed, one left to run. The
	// last point and its baseline split the budget, two workers each.
	needBase := []bool{false, true, true}
	haveBase := []bool{false, true, false}
	if got := share(needBase, haveBase, done); got != 2 {
		t.Errorf("share = %d, want 2", got)
	}
	// With its baseline checkpointed too, the last point gets it all.
	haveBase[2] = true
	if got := share(needBase, haveBase, done); got != 4 {
		t.Errorf("share with the baseline checkpointed = %d, want 4", got)
	}
	// Nothing restored: two baselines and 72 points soak the budget at one
	// worker each, baselines dispatched first.
	needBase = []bool{true, true, false}
	haveBase = []bool{false, false, false}
	sims := simulations(needBase, haveBase, make([]bool, 72))
	if len(sims) != 74 || !sims[0].baseline || !sims[1].baseline || sims[2].baseline {
		t.Errorf("fresh pool: %d simulations starting %+v, want 2 baselines then 72 points", len(sims), sims[:3])
	}
	if got := opts.nodeParallelism(len(sims)); got != 1 {
		t.Errorf("fresh share = %d, want 1", got)
	}
}

func TestRunWithNodeParallelismMatchesRun(t *testing.T) {
	// Node parallelism must not change a single row: RunWith at any
	// NodeParallelism is byte-identical to the sequential Run.
	want, err := Run(context.Background(), tinySpec, 0)
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

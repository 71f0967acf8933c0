package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPoolRowJoinPublishesOnSecondArrival: a row is published by whichever
// of its point and its baseline finishes second, exactly once.
func TestPoolRowJoinPublishesOnSecondArrival(t *testing.T) {
	// Points 0 and 2 divide by combo 0, point 1 by combo 1, whose baseline
	// was checkpointed.
	j := &rowJoin{
		points:     []point{{combo: 0}, {combo: 1}, {combo: 0}},
		baseCycles: []float64{0, 7},
		haveBase:   []bool{false, true},
		waiting:    make([]bool, 3),
	}
	if _, ok := j.pointDone(0); ok {
		t.Fatal("point 0 published before its baseline finished")
	}
	if base, ok := j.pointDone(1); !ok || base != 7 {
		t.Fatalf("point 1 over a checkpointed baseline: (%v, %v), want (7, true)", base, ok)
	}
	if ready := j.baselineDone(0, 100); !slices.Equal(ready, []int{0}) {
		t.Fatalf("baseline 0 handed out %v, want the waiting point 0", ready)
	}
	if base, ok := j.pointDone(2); !ok || base != 100 {
		t.Fatalf("point 2 after its baseline: (%v, %v), want (100, true)", base, ok)
	}
	if ready := j.baselineDone(0, 100); len(ready) != 0 {
		t.Fatalf("a second baselineDone handed out %v again", ready)
	}
}

// slowBaselineRows is a RowStore whose baseline checkpoint writes wait for
// a point to start and then a while more, so the baseline finishes after
// the point it divides. The delay only steers the order; the assertions
// that use it hold in either order, and TestPoolRowJoinPublishesOnSecondArrival
// pins the rendezvous itself without timing.
type slowBaselineRows struct {
	*memRows
	pointStarted chan struct{}
}

func (r *slowBaselineRows) Put(key string, val []byte) error {
	if strings.HasPrefix(key, "baseline:") {
		<-r.pointStarted
		time.Sleep(50 * time.Millisecond)
	}
	return r.memRows.Put(key, val)
}

// countingSink counts RowDone per row and keeps the last row reported.
type countingSink struct {
	mu      sync.Mutex
	started chan struct{}
	once    sync.Once
	dones   map[int]int
	rows    map[int]Row
}

func (s *countingSink) RowStarted(index, total, procs, size int, configHash string) {
	s.once.Do(func() { close(s.started) })
}

func (s *countingSink) RowDone(index, total int, row Row, configHash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dones[index]++
	s.rows[index] = row
}

// TestPoolPointBeforeBaseline: a point that finishes before its speedup
// baseline is published once the baseline is done — RowDone exactly once,
// with the final speedup, and the banked row checkpoint carries that same
// speedup. Run it under -race: the publication crosses goroutines.
func TestPoolPointBeforeBaseline(t *testing.T) {
	spec := Spec{Scene: "truc640", Scale: 0.2, Procs: []int{4}, Sizes: []int{16}, Cache: "perfect"}
	want, err := RunWith(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	sink := &countingSink{started: started, dones: make(map[int]int), rows: make(map[int]Row)}
	store := &slowBaselineRows{memRows: newMemRows(), pointStarted: started}
	got, err := RunWith(context.Background(), spec, RunOpts{Parallelism: 2, Progress: sink, Rows: store})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("rows differ from a sequential run\ngot  %+v\nwant %+v", got.Rows, want.Rows)
	}
	if want.Rows[0].Speedup <= 0 {
		t.Fatalf("speedup %v, want a positive ratio", want.Rows[0].Speedup)
	}
	if n := sink.dones[0]; n != 1 {
		t.Errorf("RowDone fired %d times, want once", n)
	}
	if sink.rows[0] != want.Rows[0] {
		t.Errorf("RowDone reported %+v, want %+v", sink.rows[0], want.Rows[0])
	}
	var banked Row
	data, ok := store.m[spec.rowCheckpointKey(point{procs: 4, size: 16})]
	if !ok {
		t.Fatal("row was not checkpointed")
	}
	if err := json.Unmarshal(data, &banked); err != nil {
		t.Fatal(err)
	}
	if banked != want.Rows[0] {
		t.Errorf("banked row %+v, want %+v", banked, want.Rows[0])
	}
}

package service

import (
	"slices"
	"testing"
)

func qjob(id, tenant string, class jobClass) *job {
	return &job{id: id, tenant: tenant, class: class}
}

// popIDs pops n jobs from q and returns their IDs in dequeue order.
func popIDs(t *testing.T, q *fairQueue, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed", i)
		}
		ids = append(ids, j.id)
	}
	return ids
}

func pushAll(t *testing.T, q *fairQueue, jobs ...*job) {
	t.Helper()
	for _, j := range jobs {
		if ok, closed := q.push(j, false); !ok || closed {
			t.Fatalf("push %s: ok=%v closed=%v", j.id, ok, closed)
		}
	}
}

// TestFairQueueOrder pins the dequeue discipline: strict band priority,
// round-robin over tenants within a band, FIFO within one tenant.
func TestFairQueueOrder(t *testing.T) {
	cases := []struct {
		name string
		jobs []*job
		want []string
	}{
		{"interactive before bulk", []*job{
			qjob("bulk1", "a", classBulk),
			qjob("bulk2", "b", classBulk),
			qjob("int1", "a", classInteractive),
		}, []string{"int1", "bulk1", "bulk2"}},
		{"round-robin across tenants, FIFO within one", []*job{
			qjob("a1", "a", classBulk),
			qjob("a2", "a", classBulk),
			qjob("a3", "a", classBulk),
			qjob("b1", "b", classBulk),
			qjob("c1", "c", classBulk),
			qjob("c2", "c", classBulk),
		}, []string{"a1", "b1", "c1", "a2", "c2", "a3"}},
	}
	for _, tc := range cases {
		q := newFairQueue(16)
		pushAll(t, q, tc.jobs...)
		if got := popIDs(t, q, len(tc.want)); !slices.Equal(got, tc.want) {
			t.Errorf("%s: dequeue order %v, want %v", tc.name, got, tc.want)
		}
		if n := q.len(); n != 0 {
			t.Errorf("%s: %d jobs left after draining", tc.name, n)
		}
	}
}

// TestFairQueueJoinAfterWrap: once the last tenant in the ring has had its
// turn the rotation is back at the first, so a tenant joining between two
// pops waits its turn at the end of the ring instead of jumping it.
func TestFairQueueJoinAfterWrap(t *testing.T) {
	q := newFairQueue(16)
	pushAll(t, q,
		qjob("a1", "a", classInteractive), qjob("a2", "a", classInteractive),
		qjob("b1", "b", classInteractive), qjob("b2", "b", classInteractive))
	got := popIDs(t, q, 2)
	pushAll(t, q, qjob("c1", "c", classInteractive))
	got = append(got, popIDs(t, q, 3)...)
	if want := []string{"a1", "b1", "a2", "b2", "c1"}; !slices.Equal(got, want) {
		t.Errorf("dequeue order %v, want %v", got, want)
	}
}

// TestFairQueueSteal: a thief takes bulk jobs before interactive ones.
func TestFairQueueSteal(t *testing.T) {
	q := newFairQueue(16)
	pushAll(t, q,
		qjob("int1", "a", classInteractive),
		qjob("bulk1", "a", classBulk),
		qjob("bulk2", "b", classBulk))
	var got []string
	for j := q.steal(); j != nil; j = q.steal() {
		got = append(got, j.id)
	}
	if want := []string{"bulk1", "bulk2", "int1"}; !slices.Equal(got, want) {
		t.Errorf("steal order %v, want %v", got, want)
	}
}

// TestFairQueueCapacity: push refuses past the capacity bound unless
// forced, and a closed queue refuses everything but still drains.
func TestFairQueueCapacity(t *testing.T) {
	q := newFairQueue(2)
	pushAll(t, q, qjob("j1", "a", classBulk), qjob("j2", "b", classInteractive))
	if ok, closed := q.push(qjob("j3", "a", classBulk), false); ok || closed {
		t.Fatalf("push past capacity: ok=%v closed=%v, want refused", ok, closed)
	}
	if ok, closed := q.push(qjob("j3", "a", classBulk), true); !ok || closed {
		t.Fatalf("forced push past capacity: ok=%v closed=%v, want accepted", ok, closed)
	}
	if n, d := q.len(), q.depth(); n != 3 || d != 2 {
		t.Fatalf("len %d depth %d, want 3 and 2", n, d)
	}
	q.close()
	if ok, closed := q.push(qjob("j4", "a", classBulk), true); ok || !closed {
		t.Fatalf("push after close: ok=%v closed=%v, want closed", ok, closed)
	}
	if got, want := popIDs(t, q, 3), []string{"j2", "j1", "j3"}; !slices.Equal(got, want) {
		t.Errorf("drain order %v, want %v", got, want)
	}
	if j, ok := q.pop(); ok || j != nil {
		t.Errorf("pop on a closed, drained queue returned %v, %v", j, ok)
	}
}

// TestFairQueueDrainWrap: when the last tenant in the ring drains, the
// rotation is back at the first at once, so a tenant joining before the
// next pop waits behind it instead of jumping it.
func TestFairQueueDrainWrap(t *testing.T) {
	q := newFairQueue(16)
	pushAll(t, q,
		qjob("a1", "a", classBulk), qjob("a2", "a", classBulk),
		qjob("b1", "b", classBulk))
	got := popIDs(t, q, 2)
	pushAll(t, q, qjob("c1", "c", classBulk))
	got = append(got, popIDs(t, q, 2)...)
	if want := []string{"a1", "b1", "a2", "c1"}; !slices.Equal(got, want) {
		t.Errorf("dequeue order %v, want %v", got, want)
	}
}

package service

import "sync"

// jobClass is a job's scheduling band. Bands are strict priorities:
// interactive jobs always dequeue before bulk ones, which is what keeps a
// small single-config job from waiting behind a tenant's 10k-point sweep.
type jobClass int

const (
	classInteractive jobClass = iota
	classBulk
	numClasses
)

func (c jobClass) String() string {
	switch c {
	case classInteractive:
		return "interactive"
	case classBulk:
		return "bulk"
	}
	return "unknown"
}

// fairQueue replaces the plain buffered channel as the worker queue: a
// two-band (interactive over bulk) fair queue across tenants, FIFO within
// one tenant's band. Capacity bounds total occupancy like the old channel's
// buffer did; push is non-blocking, pop blocks on a condition variable until
// work arrives or the queue closes.
//
// Fairness within a band is round-robin over the tenants that have queued
// jobs: each tenant in turn dequeues one job before the cursor advances.
// Tenants arrive and leave the ring as their per-band FIFOs fill and drain.
type fairQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	closed   bool
	n        int
	bands    [numClasses]band
}

// band is one priority level: per-tenant FIFOs plus the round-robin ring of
// tenants that currently have jobs here.
type band struct {
	tenants map[string]*tenantFIFO
	ring    []string
	cursor  int
}

type tenantFIFO struct {
	jobs []*job
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{capacity: capacity}
	q.cond = sync.NewCond(&q.mu)
	for c := range q.bands {
		q.bands[c].tenants = make(map[string]*tenantFIFO)
	}
	return q
}

// push enqueues j. force bypasses the capacity bound — used when a
// supervised cluster job falls back to the local queue, which must never be
// dropped (bounded overshoot: at most one job per supervised forward).
// Returns ok=false when full, closed=true when the queue has been closed
// (in which case the job was not enqueued).
func (q *fairQueue) push(j *job, force bool) (ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, true
	}
	if !force && q.n >= q.capacity {
		return false, false
	}
	b := &q.bands[j.class]
	f := b.tenants[j.tenant]
	if f == nil {
		f = &tenantFIFO{}
		b.tenants[j.tenant] = f
	}
	if len(f.jobs) == 0 {
		b.ring = append(b.ring, j.tenant)
	}
	f.jobs = append(f.jobs, j)
	q.n++
	q.cond.Signal()
	return true, false
}

// popBandLocked dequeues the next job of band c under the round-robin
// discipline, or nil when the band is empty. Caller holds q.mu.
func (q *fairQueue) popBandLocked(c jobClass) *job {
	b := &q.bands[c]
	if len(b.ring) == 0 {
		return nil
	}
	f := b.tenants[b.ring[b.cursor]]
	j := f.jobs[0]
	f.jobs = f.jobs[1:]
	q.n--
	if len(f.jobs) == 0 {
		// Tenant drained: leave the ring; the cursor now points at the next
		// tenant.
		b.ring = append(b.ring[:b.cursor], b.ring[b.cursor+1:]...)
	} else {
		b.cursor++
	}
	// Wrap now, not on the next pop: a tenant that joins the ring in
	// between must queue behind ring[0], not jump the rotation.
	if b.cursor >= len(b.ring) {
		b.cursor = 0
	}
	return j
}

func (q *fairQueue) popLocked() *job {
	for c := jobClass(0); c < numClasses; c++ {
		if j := q.popBandLocked(c); j != nil {
			return j
		}
	}
	return nil
}

// pop blocks until a job is available (returned in fairness order) or the
// queue closes after draining empty — the channel-receive contract workers
// had before.
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.popLocked(); j != nil {
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// steal dequeues one job for a remote thief without blocking, preferring
// the LOWEST band (bulk first): giving away long jobs helps local
// interactive latency the most. Returns nil when empty.
func (q *fairQueue) steal() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c := numClasses - 1; c >= 0; c-- {
		if j := q.popBandLocked(c); j != nil {
			return j
		}
	}
	return nil
}

// close stops intake and wakes every blocked pop; queued jobs still drain.
// Idempotent.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// len is the current occupancy.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// depth is the configured capacity bound.
func (q *fairQueue) depth() int { return q.capacity }

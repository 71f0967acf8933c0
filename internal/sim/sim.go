// Package sim is a small discrete-event simulation kernel. It plays the role
// of ASF, the C++ simulator framework the paper's cycle-accurate simulations
// were built on: components are processes that are woken at scheduled cycle
// times, exchange work through bounded FIFOs with producer back-pressure, and
// advance a shared simulated clock.
//
// The kernel is deliberately minimal: a binary-heap event queue keyed on
// (time, sequence) so that simultaneous events fire in schedule order, which
// keeps runs fully deterministic.
//
// Only tests import this package. The machine in internal/core times its
// FIFO-coupled regime with a direct recurrence; its tests run the same
// frames through an event-driven reference built on this kernel and require
// byte-identical results.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a simulated clock value in cycles.
type Time int64

// Forever is a sentinel time later than any reachable cycle count.
const Forever Time = math.MaxInt64

// Event is a callback scheduled to run at a simulated time.
type Event func(now Time)

type scheduledEvent struct {
	at  Time
	seq uint64
	fn  Event
}

type eventHeap []scheduledEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(scheduledEvent)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Simulator owns the event queue and the simulated clock.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
}

// New returns a simulator with the clock at cycle 0 and no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled events not yet fired.
func (s *Simulator) Pending() int { return len(s.events) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (s *Simulator) At(t Time, fn Event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before current time %d", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, scheduledEvent{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (s *Simulator) After(delay Time, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	s.At(s.now+delay, fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(scheduledEvent)
	s.now = ev.at
	ev.fn(s.now)
	return true
}

// Run fires events until the queue drains and returns the final time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil fires events with time ≤ limit. It returns the current time and
// whether the queue drained (false means events remain beyond the limit).
func (s *Simulator) RunUntil(limit Time) (Time, bool) {
	for len(s.events) > 0 && s.events[0].at <= limit {
		s.Step()
	}
	return s.now, len(s.events) == 0
}

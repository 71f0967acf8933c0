package sim

import "fmt"

// FIFO is a bounded single-producer single-consumer queue between two
// simulated components. It models the hardware FIFOs of the paper's node
// diagram (the triangle FIFO in front of the setup engine): a full FIFO
// back-pressures the producer, an empty FIFO starves the consumer.
//
// Producer and consumer register at most one wake-up callback each; the FIFO
// schedules the callback on the simulator as soon as the blocking condition
// clears. Callbacks run as fresh events at the current time, never
// synchronously, so components cannot re-enter each other.
type FIFO[T any] struct {
	sim   *Simulator
	buf   []T
	head  int // index of the oldest element
	count int

	onSpace Event // producer waiting for room
	onItem  Event // consumer waiting for data

	// Peak tracks the maximum occupancy ever observed, useful for sizing
	// studies.
	Peak int
}

// NewFIFO returns a FIFO with the given capacity registered on s.
func NewFIFO[T any](s *Simulator, capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: FIFO capacity must be positive, got %d", capacity))
	}
	return &FIFO[T]{sim: s, buf: make([]T, capacity)}
}

// Len returns the current occupancy.
func (f *FIFO[T]) Len() int { return f.count }

// Full reports whether a push would fail.
func (f *FIFO[T]) Full() bool { return f.count == len(f.buf) }

// Empty reports whether a pop would fail.
func (f *FIFO[T]) Empty() bool { return f.count == 0 }

// TryPush appends v if there is room and reports whether it did. A waiting
// consumer is woken.
func (f *FIFO[T]) TryPush(v T) bool {
	if f.Full() {
		return false
	}
	tail := (f.head + f.count) % len(f.buf)
	f.buf[tail] = v
	f.count++
	if f.count > f.Peak {
		f.Peak = f.count
	}
	if f.onItem != nil {
		fn := f.onItem
		f.onItem = nil
		f.sim.After(0, fn)
	}
	return true
}

// TryPop removes and returns the oldest element. A waiting producer is woken.
func (f *FIFO[T]) TryPop() (T, bool) {
	var zero T
	if f.Empty() {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) % len(f.buf)
	f.count--
	if f.onSpace != nil {
		fn := f.onSpace
		f.onSpace = nil
		f.sim.After(0, fn)
	}
	return v, true
}

// WaitSpace registers the producer's wake-up. If the FIFO already has room
// the callback fires immediately (as a zero-delay event). Only one producer
// callback may be outstanding.
func (f *FIFO[T]) WaitSpace(fn Event) {
	if f.onSpace != nil {
		panic("sim: FIFO already has a waiting producer")
	}
	if !f.Full() {
		f.sim.After(0, fn)
		return
	}
	f.onSpace = fn
}

// WaitItem registers the consumer's wake-up. If the FIFO already has data the
// callback fires immediately (as a zero-delay event). Only one consumer
// callback may be outstanding.
func (f *FIFO[T]) WaitItem(fn Event) {
	if f.onItem != nil {
		panic("sim: FIFO already has a waiting consumer")
	}
	if !f.Empty() {
		f.sim.After(0, fn)
		return
	}
	f.onItem = fn
}

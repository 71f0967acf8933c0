// The decoupled clock: when no triangle FIFO can overfill, the distributor
// never blocks, so it pushes every triangle at simulated cycle zero and the
// machine's nodes are fully independent — each drains its own queue with no
// cross-node coupling. In that regime (the paper's "big enough" buffer
// assumption, used by every experiment except the §8 buffering study) each
// of the machine's node workers walks the frame (stream.go) on a clock of
// its own and times its own nodes, the workers concurrently via
// internal/par.
//
// Equivalence contract: the decoupled clock produces byte-identical results
// (cycles, counters, cache statistics, FIFO peaks) to the FIFO-coupled
// clock (coupledClock). With no push ever blocking, that clock's recurrence
// reduces to this file's arithmetic: every push at cycle 0, a node's k-th
// pop at the ceiling of its (k−1)-th completion, and a FIFO peak equal to
// the node's count. The one dispatch rule (decoupled) therefore sends a
// frame to the coupled clock only when
//
//   - some node is routed more triangles than its FIFO holds, so the
//     distributor would actually block (the frame's per-node counts); or
//   - a flight recorder is attached (its shared auto-rescaling bucket grid
//     is written by every node and is deliberately not synchronized).
//
// The worker count never gates the choice: on one worker the decoupled
// clock is still the cheaper one.
//
// Concurrent node timing scales only if node state shares no CPU cache
// line: the walk hands consecutive nodes to different workers, and
// newEngines allocates node p's engine, cache and bus right before node
// p+1's. Each of those types ends in a 64-byte pad, and the prefetch ring
// and each worker's clock state are allocated in whole lines plus one, so
// no two workers write one line; the layout tests in internal/engine,
// internal/cache and internal/memory, and TestDecoupledClocksShareNoLine,
// guard this.
package core

import (
	"context"
	"math"
	"runtime"
	"unsafe"

	"repro/internal/par"
	"repro/internal/trace"
)

// SetNodeParallelism bounds how many concurrent workers the machine may use
// to walk a frame on the decoupled clock, streamed or stored, and to build
// the dynamic tile queue's frame. n <= 0 restores the default,
// runtime.GOMAXPROCS(0); n == 1 runs everything on a single worker. Which
// clock times a frame does not depend on n, and results are byte-identical
// at every setting — the knob trades wall-clock for cores, never accuracy.
func (m *Machine) SetNodeParallelism(n int) {
	m.nodePar = n
}

// nodeParallelism resolves the configured worker bound.
func (m *Machine) nodeParallelism() int {
	if m.nodePar > 0 {
		return m.nodePar
	}
	return runtime.GOMAXPROCS(0)
}

// ctxPollTriangles is how many triangles a frame's walk or hook processes
// between context polls: frequent enough that cancellation lands within
// microseconds, rare enough to stay invisible in profiles.
const ctxPollTriangles = 1 << 10

// decoupled is the dispatch rule: it reports whether a frame that routes
// counts[p] triangles to node p may run decoupled, i.e. whether no recorder
// is attached and no triangle FIFO can ever back-pressure.
func (m *Machine) decoupled(counts []int) bool {
	if m.flight != nil {
		return false
	}
	for _, n := range counts {
		if n > m.cfg.TriangleBuffer {
			return false
		}
	}
	return true
}

// walkDecoupled times frame f on the decoupled clock: each of the machine's
// W node workers walks the whole frame on a clock of its own and times its
// own nodes, worker k the nodes p with p mod W = k. counts are the frame's
// per-node routed triangles, which are also the FIFO peaks.
func (m *Machine) walkDecoupled(ctx context.Context, f *trace.Scene, counts []int) error {
	workers := min(m.nodeParallelism(), m.cfg.Procs)
	err := par.ForEach(ctx, workers, workers, func(k int) error {
		mine := make([]bool, m.cfg.Procs)
		for p := k; p < len(mine); p += workers {
			mine[p] = true
		}
		return m.walk(ctx, f, newDecoupledClock(m.cfg.Procs), mine)
	})
	if err != nil {
		return err
	}
	m.lastFIFOPeaks = append(m.lastFIFOPeaks[:0], counts...)
	m.parallelFrames++
	return nil
}

// decoupledClock is one worker's decoupled recurrence, indexed by node:
// each node the worker times first pops at cycle 0 and each later item at
// the ceiling of its previous completion. The worker writes only its own
// nodes' entries.
type decoupledClock []decoupledNode

// decoupledNode is one node's state on the decoupled clock.
type decoupledNode struct {
	ready  float64 // the cycle the node next pops
	popped int     // items popped this frame
}

// newDecoupledClock returns a worker's clock on a procs-node machine. Its
// entries are written on every work item, so, like the engine's prefetch
// ring, its backing array is rounded up to whole 64-byte lines plus one,
// and no other worker's clock shares a line with it
// (TestDecoupledClocksShareNoLine).
func newDecoupledClock(procs int) decoupledClock {
	const lineNodes = 64 / int(unsafe.Sizeof(decoupledNode{}))
	return make(decoupledClock, procs, (procs+lineNodes-1)/lineNodes*lineNodes+lineNodes)
}

func (c decoupledClock) push(p int) (int, float64) { return c[p].popped, c[p].ready }

func (c decoupledClock) finish(p int, _, done float64) {
	c[p].ready = math.Ceil(done)
	c[p].popped++
}

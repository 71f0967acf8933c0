// The decoupled driver: when no triangle FIFO can overfill, the distributor
// never blocks, so it pushes every triangle at simulated cycle zero and the
// machine's nodes are fully independent — each drains its own queue with no
// cross-node coupling. In that regime (the paper's "big enough" buffer
// assumption, used by every experiment except the §8 buffering study) this
// file times every node's work list on its own, the nodes concurrently via
// internal/par.
//
// Equivalence contract: the decoupled driver produces byte-identical results
// (cycles, counters, cache statistics, FIFO peaks) to the FIFO-coupled
// driver (replayCoupled). With no push ever blocking, that driver's
// recurrence reduces to this file's arithmetic: every push at cycle 0, a
// node's k-th pop at the ceiling of its (k−1)-th completion, and a FIFO peak
// equal to the node's count. The one dispatch rule (decoupled) therefore
// sends a frame to the coupled driver only when
//
//   - some node is routed more triangles than its FIFO holds, so the
//     distributor would actually block (the frame's per-node counts); or
//   - a flight recorder is attached (its shared auto-rescaling bucket grid
//     is written by every node and is deliberately not synchronized).
//
// The worker count never gates the choice: on one worker the decoupled
// driver is still the cheaper one.
//
// Concurrent node timing scales only if node state shares no CPU cache
// line: par.ForEach hands consecutive nodes to different workers, and
// newEngines allocates node p's engine, cache and bus right before node
// p+1's. Each of those types ends in a 64-byte pad, and the prefetch ring is
// allocated in whole lines plus one, so no two workers write one line; the
// layout tests in internal/engine, internal/cache and internal/memory guard
// this.
package core

import (
	"context"
	"math"
	"runtime"

	"repro/internal/par"
)

// SetNodeParallelism bounds how many concurrent workers the machine may use
// to build a frame's work list and to replay independent node pipelines.
// n <= 0 restores the default, runtime.GOMAXPROCS(0); n == 1 runs both on a
// single worker. Which driver times a frame does not depend on n, and
// results are byte-identical at every setting — the knob trades wall-clock
// for cores, never accuracy.
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

// ctxPollTriangles is how many work items a driver processes between
// context polls: frequent enough that cancellation lands within
// microseconds, rare enough to stay invisible in profiles.
const ctxPollTriangles = 1 << 10

// decoupled is the dispatch rule: it reports whether frame fa may run on the
// decoupled driver, i.e. whether no recorder is attached and no triangle FIFO
// can ever back-pressure.
func (m *Machine) decoupled(fa *FrameArtifact) bool {
	if m.flight != nil {
		return false
	}
	for _, n := range fa.counts {
		if n > m.cfg.TriangleBuffer {
			return false
		}
	}
	return true
}

// replayParallel is the decoupled driver: every node pipeline times its own
// work list with the coupled driver's arithmetic for a FIFO that never
// fills — the first pop at cycle 0, each later pop at the ceiling of the
// previous completion.
func (m *Machine) replayParallel(ctx context.Context, fa *FrameArtifact) error {
	procs := m.cfg.Procs
	workers := m.nodeParallelism()
	if workers > procs {
		workers = procs
	}
	err := par.ForEach(ctx, workers, procs, func(p int) error {
		e := m.engines[p]
		arrival := 0.0
		for k, d := range fa.perNode[p] {
			if k%ctxPollTriangles == 0 && k > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			done := d.process(e, m.mgr, arrival)
			arrival = math.Ceil(done)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.lastFIFOPeaks = append(m.lastFIFOPeaks[:0], fa.counts...)
	m.parallelFrames++
	return nil
}

// The decoupled driver: when triangle FIFOs are provably big enough to never
// back-pressure the distributor, the machine's nodes are fully independent —
// the distributor pushes every triangle at simulated time zero and each node
// drains its own queue with no cross-node coupling. In that regime (the
// paper's "big enough" buffer assumption, used by every experiment except the
// §8 buffering study) the event kernel's global heap is pure overhead: this
// file times every node's work list on its own, the nodes concurrently via
// internal/par.
//
// Equivalence contract: the decoupled driver produces byte-identical results
// (cycles, counters, cache statistics, FIFO peaks) to the FIFO-coupled event
// driver. That holds because, with no backpressure, a node's k-th triangle
// arrival in the event driver is exactly ceil(completion of triangle k−1)
// (the node re-arms its step event at that cycle), and the engine's timing is
// a deterministic function of its own arrival sequence only. The one dispatch
// rule (decoupled) therefore sends a frame to the event driver whenever
// coupling could matter:
//
//   - the configured TriangleBuffer is below the paper default (§8 regime);
//   - some node is routed more triangles than its FIFO holds, so the
//     distributor would actually block (the frame's per-node counts);
//   - a flight recorder is attached (its shared auto-rescaling bucket grid is
//     written by every node and is deliberately not synchronized).
//
// The worker count never gates the choice: on one worker the decoupled
// driver is still cheaper than the event heap.
package core

import (
	"context"
	"math"
	"runtime"

	"repro/internal/par"
	"repro/internal/sim"
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

// ctxPollTriangles is how many triangles a worker processes between context
// polls, mirroring the event driver's cancelCheckEvents granularity.
const ctxPollTriangles = 1 << 10

// decoupled is the dispatch rule: it reports whether frame fa may run on the
// decoupled driver, i.e. whether no triangle FIFO can ever back-pressure.
func (m *Machine) decoupled(fa *FrameArtifact) bool {
	if m.coupledOnly || m.cfg.TriangleBuffer < DefaultTriangleBuffer || m.flight != nil {
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
// work list with the event driver's exact arrival arithmetic — the first pop
// at cycle 0, each later pop at the integer cycle the node re-arms on.
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
			arrival = float64(sim.Time(math.Ceil(done)))
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

package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/texture"
)

// The event-driven reference for the FIFO-coupled driver. It models the
// machine the way the paper's ASF simulator does: a distributor process and
// one process per node on the sim kernel, exchanging (triangle, node) work
// items through bounded FIFOs with producer back-pressure. Production times
// the same machine with replayCoupled's direct recurrence; every
// equivalence test takes its reference results from here.

// forceOracle sends every frame of m to the event-driven reference.
func forceOracle(m *Machine) { m.replay = (*Machine).replayOracle }

// forceCoupled sends every frame of m to replayCoupled, whatever the
// dispatch rule would pick.
func forceCoupled(m *Machine) { m.replay = (*Machine).replayCoupled }

// oracleCheckEvents is how many events fire between context polls.
const oracleCheckEvents = 1 << 14

// replayOracle is the event-driven reference driver: the distributor pushes
// each triangle's work to its destinations' bounded FIFOs in submission
// order, blocking while any destination FIFO is full, and every node pops
// and times its work as the sim kernel schedules it.
func (m *Machine) replayOracle(ctx context.Context, fa *FrameArtifact) error {
	s := sim.New()
	d := &oracleDistributor{fa: fa}
	for i := 0; i < m.cfg.Procs; i++ {
		d.fifos = append(d.fifos, sim.NewFIFO[*ArtifactDest](s, m.cfg.TriangleBuffer))
	}
	s.At(0, d.step)
	for i := 0; i < m.cfg.Procs; i++ {
		n := &oracleNode{sim: s, engine: m.engines[i], mgr: m.mgr, fifo: d.fifos[i]}
		s.At(0, n.step)
	}
	for {
		ran := false
		for i := 0; i < oracleCheckEvents && s.Step(); i++ {
			ran = true
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ran {
			break
		}
	}
	if d.next != len(fa.Tris) {
		panic(fmt.Sprintf("core: oracle deadlock: distributed %d of %d triangles",
			d.next, len(fa.Tris)))
	}
	m.lastFIFOPeaks = m.lastFIFOPeaks[:0]
	for _, fifo := range d.fifos {
		m.lastFIFOPeaks = append(m.lastFIFOPeaks, fifo.Peak)
	}
	return nil
}

// oracleDistributor feeds a frame's triangles in submission order to the
// routed nodes' FIFOs, blocking while any destination FIFO is full.
// Distribution is instantaneous in simulated time (ideal geometry stage and
// network).
type oracleDistributor struct {
	fa    *FrameArtifact
	fifos []*sim.FIFO[*ArtifactDest]

	next int // next triangle to distribute
	dest int // next destination of triangle next
}

// step distributes triangles until a FIFO back-pressures, then re-arms on
// that FIFO's space event.
func (d *oracleDistributor) step(sim.Time) {
	for ; d.next < len(d.fa.Tris); d.next, d.dest = d.next+1, 0 {
		dests := d.fa.Tris[d.next].Dests
		for ; d.dest < len(dests); d.dest++ {
			dst := &dests[d.dest]
			if !d.fifos[dst.Node].TryPush(dst) {
				d.fifos[dst.Node].WaitSpace(d.step)
				return
			}
		}
	}
}

// oracleNode is one node's consumer loop on the sim kernel.
type oracleNode struct {
	sim    *sim.Simulator
	engine *engine.Engine
	mgr    *texture.Manager
	fifo   *sim.FIFO[*ArtifactDest]
}

func (n *oracleNode) step(now sim.Time) {
	d, ok := n.fifo.TryPop()
	if !ok {
		n.fifo.WaitItem(n.step)
		return
	}
	done := d.process(n.engine, n.mgr, float64(now))
	n.sim.At(sim.Time(math.Ceil(done)), n.step)
}

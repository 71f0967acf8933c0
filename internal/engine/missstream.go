// The miss-stream path: probe once, time many. The node hides memory
// latency behind the prefetch FIFO and models only bandwidth, so a
// fragment's probes read no clock: a node's L1/L2 hit-miss sequence is a
// function of its footprint stream and its cache geometry alone. The bus
// ratio, setup cost, prefetch depth and triangle buffer change only the
// timing. A probe pass (Prober.AppendMisses) therefore walks a node's
// precomputed work once per cache geometry into a compact miss stream, and
// a timing pass (ProcessMisses) replays the stream into any bus and buffer
// setting.
//
// Equivalence contract: ProcessMisses gives the same completion times,
// engine counters, bus counters and flight-recorder phases as
// ProcessPrecomputed on the same work, bit for bit. Both time every
// fragment that missed through missFragment and every other through
// hitFragments, one scan cycle per fragment; the stream only moves the
// probes earlier.
// The cache counters are the probe pass's: the engine's own cache model is
// never touched by ProcessMisses.
package engine

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/raster"
	"repro/internal/texture"
)

// Miss-stream op encoding. An op with hitRun set stands for that many
// consecutive fragments (its low 31 bits) that hit in the L1. Any other op
// is one fragment that missed: bits 0–3 hold its L1 misses (1–8) and bits
// 4–7 how many of those also missed the L2 (0–8).
const (
	hitRun    = 1 << 31
	maxHitRun = hitRun - 1
)

// Prober is the probe half of the per-fragment body: a node's L1 texture
// cache and, when L2 is non-nil, its second level.
type Prober struct {
	L1 cache.Model
	L2 cache.Model
}

// Fragment probes one fragment's footprint and returns how many of its 8
// texels missed in the L1 and how many of those then missed in the L2 (0
// without one). The L1 is probed with the whole footprint in one call; each
// L1 miss then probes the L2, in footprint order (the two levels are
// independent models, so the interleaving does not matter).
func (p *Prober) Fragment(foot *[8]texture.Addr) (l1, main int) {
	if missMask := p.L1.AccessFootprint(foot); missMask != 0 {
		return p.misses(missMask, foot)
	}
	return 0, 0
}

// misses is Fragment after an L1 probe of foot that missed the addresses
// in missMask (≠ 0): it probes each of them in the L2 and returns the
// counts. The live paths call the L1 and misses themselves, so a fragment
// that hits costs them no call beyond the cache's own.
func (p *Prober) misses(missMask uint8, foot *[8]texture.Addr) (l1, main int) {
	if p.L2 != nil {
		for m := missMask; m != 0; m &= m - 1 {
			if !p.L2.Access(foot[bits.TrailingZeros8(m)]) {
				main++
			}
		}
	}
	return bits.OnesCount8(missMask), main
}

// AppendMisses is the probe pass over one work item: it makes exactly the
// probes ProcessPrecomputed would, in the same order, and appends the
// item's miss-stream ops to ops — one per fragment that missed in the L1,
// one per run of consecutive all-hit fragments. Runs never reach back into
// ops present before the call, so each item's ops stay a slice of their
// own. Every run of w must cover at least one fragment.
func (p *Prober) AppendMisses(ops []uint32, w *PrecomputedWork) []uint32 {
	first := len(ops)
	repeatFast := p.L1.RepeatHits()
	for r := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8:])
		reps := int(w.Reps[r])
		probes := reps
		if repeatFast {
			probes = 1
		}
		for j := 0; j < probes; j++ {
			if l1, main := p.Fragment(foot); l1 != 0 {
				ops = append(ops, uint32(l1)|uint32(main)<<4)
			} else {
				ops = appendHits(ops, first, 1)
			}
		}
		if repeatFast && reps > 1 {
			p.L1.AddHits(uint64(reps-1) * 8)
			ops = appendHits(ops, first, reps-1)
		}
	}
	return ops
}

// appendHits appends n all-hit fragments to ops, extending the last op when
// it is a hit run at or after index first.
func appendHits(ops []uint32, first, n int) []uint32 {
	if last := len(ops) - 1; last >= first && ops[last]&hitRun != 0 {
		k := min(n, maxHitRun-int(ops[last]&maxHitRun))
		ops[last] += uint32(k)
		n -= k
	}
	for n > 0 {
		k := min(n, maxHitRun)
		ops = append(ops, hitRun|uint32(k))
		n -= k
	}
	return ops
}

// ProcessMisses is the timing pass: it runs one triangle whose probes were
// made ahead of time, from ops — its slice of a miss stream AppendMisses
// built with this engine's cache geometry — beginning no earlier than
// arrival, and returns the absolute completion time. segs are the owned
// segments, which a pure-scan engine counts instead (it never probes, so
// its stream slices are empty).
func (e *Engine) ProcessMisses(arrival float64, segs []raster.Span, ops []uint32) float64 {
	start := e.StartTriangle(arrival)
	stall0 := e.stats.StallCycles
	if e.pureScan {
		return e.finishTriangle(start, stall0, e.scanPixels(start, segs))
	}
	s := start
	for _, op := range ops {
		if op&hitRun != 0 {
			s = e.hitFragments(s, int(op&maxHitRun))
		} else {
			s = e.missFragment(start, s, int(op&15), int(op>>4))
		}
	}
	return e.finishTriangle(start, stall0, s)
}

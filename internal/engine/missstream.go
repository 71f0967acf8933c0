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
// Equivalence contract: ProcessMisses is the only loop that times
// fragments — every fragment that missed through missFragment, every other
// through hitFragments, one scan cycle per fragment. ProcessTriangle and
// ProcessPrecomputed probe one work item into the engine's op scratch and
// time it through ProcessMisses at once; a stream AppendMisses built ahead
// of time on a Prober of the same geometry holds the same ops, so timing
// from it gives the same completion times, engine and bus counters and
// flight-recorder phases, bit for bit. The cache counters are then the
// probe pass's: ProcessMisses never touches the engine's own cache model.
package engine

import (
	"math/bits"

	"repro/internal/cache"
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

// misses is the probe body of a fragment whose L1 probe of foot missed the
// addresses in missMask (≠ 0): it probes each of them in the L2, in
// footprint order (the two levels are independent models, so the
// interleaving does not matter), and returns the fragment's miss op. The
// probe loops call the L1 themselves, so a fragment that hits costs them no
// call beyond the cache's own.
func (p *Prober) misses(missMask uint8, foot *[8]texture.Addr) uint32 {
	main := 0
	if p.L2 != nil {
		for m := missMask; m != 0; m &= m - 1 {
			if !p.L2.Access(foot[bits.TrailingZeros8(m)]) {
				main++
			}
		}
	}
	return uint32(bits.OnesCount8(missMask)) | uint32(main)<<4
}

// AppendMisses is the probe pass over one work item: it probes every
// fragment's footprint in scan order and appends the item's miss-stream ops
// to ops — one per fragment that missed in the L1, one per run of
// consecutive all-hit fragments. A run that repeats a footprint, on a cache
// whose RepeatHits holds, is probed once and its repeats counted as hits.
// Runs never extend ops present before the call, so each item's ops stay a
// slice of their own. Every run of w must cover at least one fragment.
func (p *Prober) AppendMisses(ops []uint32, w *PrecomputedWork) []uint32 {
	repeatFast := p.L1.RepeatHits()
	hits, repeats := 0, 0
	for r := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8:])
		reps := int(w.Reps[r])
		probes := reps
		if repeatFast {
			probes = 1
		}
		for j := 0; j < probes; j++ {
			if missMask := p.L1.AccessFootprint(foot); missMask == 0 {
				hits++
			} else {
				ops = append(appendHits(ops, hits), p.misses(missMask, foot))
				hits = 0
			}
		}
		if repeatFast {
			repeats += reps - 1
			hits += reps - 1
		}
	}
	if repeats > 0 {
		p.L1.AddHits(uint64(repeats) * 8)
	}
	return appendHits(ops, hits)
}

// appendHits appends a run of n all-hit fragments to ops, split into ops of
// at most maxHitRun fragments.
func appendHits(ops []uint32, n int) []uint32 {
	for ; n > 0; n -= maxHitRun {
		ops = append(ops, hitRun|uint32(min(n, maxHitRun)))
	}
	return ops
}

// ProcessMisses is the timing pass: it runs one triangle whose probes were
// made ahead of time, from ops — its slice of a miss stream AppendMisses
// built with this engine's cache geometry — beginning no earlier than
// arrival, and returns the absolute completion time. segs are the owned
// segments, which a pure-scan engine counts instead (it never probes, so
// its stream slices are empty).
func (e *Engine) ProcessMisses(arrival float64, segs []Segment, ops []uint32) float64 {
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

// Package cache simulates the on-chip texture cache of one node. The paper
// uses the Hakura–Gupta configuration unchanged: 16 KB, 4-way set
// associative, 64-byte lines holding a 4×4 texel block, LRU replacement.
//
// The cache is modelled functionally (hit or miss per access); timing is the
// memory bus's job. A perfect-cache model (always hits — the paper's
// "perfect cache" that ignores even compulsory misses) and a cacheless model
// are provided for the load-balancing-only experiments and the ratio-8
// baseline respectively.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/texture"
)

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 for an idle cache).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Model is the cache contract the engine drives: one call per fragment's
// trilinear footprint (or per texel access), reporting which texels were
// already resident. A miss implies the containing line is fetched (and
// inserted, for a real cache).
type Model interface {
	// Access looks up the texel at byte address addr, updating replacement
	// state, and reports a hit.
	Access(addr texture.Addr) bool
	// AccessFootprint looks up a fragment's 8 texel addresses in order,
	// leaving the model exactly as 8 Access calls would, and returns a mask
	// with bit i set when foot[i] missed.
	AccessFootprint(foot *[8]texture.Addr) (missMask uint8)
	// RepeatHits reports whether re-accessing the lines of a trilinear
	// footprint (at most 8 addresses, at most 2 distinct lines per set and
	// mip level) that the immediately preceding accesses fully touched, in
	// the same order, is guaranteed to hit on every address AND to leave the
	// replacement state exactly as a real re-access would. When true, a
	// caller running a run of fragments whose footprints touch the same
	// lines in the same order may account the repeats via AddHits instead
	// of calling Access — the engine's repeat fast path.
	RepeatHits() bool
	// AddHits accounts n accesses that are known to hit without looking
	// them up. Only meaningful when RepeatHits reports true.
	AddHits(n uint64)
	// Stats returns the accumulated counters.
	Stats() Stats
	// Reset clears contents and counters.
	Reset()
}

// Config describes a set-associative cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size: must be texture.LineBytes, one 4×4 texel block
}

// PaperConfig is the 16 KB 4-way 64 B-line configuration used throughout the
// paper's evaluation.
func PaperConfig() Config {
	return Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: texture.LineBytes}
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	// The engine skips probing a fragment whose footprint lies in the same
	// texture lines as the one before it (texture.Sampler.Next), which holds
	// only when a cache line is exactly one texture block.
	if c.LineBytes != texture.LineBytes {
		return fmt.Errorf("cache: line %d bytes, want the texture block's %d", c.LineBytes, texture.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// SetAssoc is an LRU set-associative cache. Each set keeps its lines ordered
// most-recently-used first, so a lookup is a short scan and a hit is a small
// rotate — fast enough for the hundreds of millions of accesses a full-frame
// simulation performs.
type SetAssoc struct {
	cfg     Config
	ways    int
	setMask uint32
	// tags[set*ways : (set+1)*ways], MRU first. The sentinel invalidTag marks
	// an empty way.
	tags  []uint32
	stats Stats
	_     [64]byte // no other node's state on these lines; see TestModelsArePadded
}

const invalidTag = ^uint32(0)

// New returns an empty set-associative cache for cfg. It panics on an
// invalid configuration; callers validate user-supplied configs first.
func New(cfg Config) *SetAssoc {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &SetAssoc{
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint32(cfg.Sets() - 1),
		tags:    make([]uint32, cfg.Sets()*cfg.Ways),
	}
	c.Reset()
	return c
}

// Config returns the cache geometry.
func (c *SetAssoc) Config() Config { return c.cfg }

// Access implements Model.
func (c *SetAssoc) Access(addr texture.Addr) bool {
	c.stats.Accesses++
	if c.lookup(uint32(addr) >> texture.LineShift) {
		return true
	}
	c.stats.Misses++
	return false
}

// AccessFootprint implements Model. An address in the same line as the one
// before it is a hit that changes nothing (that line was just made MRU of
// its set), so only line changes probe a set. The probe is lookup's body
// inlined by hand: an out-of-line call per line costs the engine about 15%
// of its per-fragment time. TestAccessFootprintMatchesAccess pins the two
// to the same results and replacement state.
func (c *SetAssoc) AccessFootprint(foot *[8]texture.Addr) (missMask uint8) {
	c.stats.Accesses += 8
	prev := invalidTag
	for i, a := range foot {
		line := uint32(a) >> texture.LineShift
		if line == prev {
			continue
		}
		prev = line
		ways := c.tags[int(line&c.setMask)*c.ways:][:c.ways]
		if ways[0] == line {
			continue
		}
		w := 1
		for w < len(ways) && ways[w] != line {
			w++
		}
		if w == len(ways) {
			missMask |= 1 << i
			w--
		}
		for ; w > 0; w-- {
			ways[w] = ways[w-1]
		}
		ways[0] = line
	}
	c.stats.Misses += uint64(bits.OnesCount8(missMask))
	return missMask
}

// lookup probes line's set and moves the line to the MRU position: a hit
// rotates it forward, a miss evicts the LRU (last) way and inserts it. It
// reports a hit.
func (c *SetAssoc) lookup(line uint32) bool {
	ways := c.tags[int(line&c.setMask)*c.ways:][:c.ways]
	if ways[0] == line { // fast path: repeated line
		return true
	}
	w := 1
	for w < len(ways) && ways[w] != line {
		w++
	}
	hit := w < len(ways)
	if !hit {
		w--
	}
	for ; w > 0; w-- {
		ways[w] = ways[w-1]
	}
	ways[0] = line
	return hit
}

// Stats implements Model.
func (c *SetAssoc) Stats() Stats { return c.stats }

// RepeatHits implements Model. A trilinear footprint touches a 2×2 texel
// block neighborhood per mip level; x-adjacent blocks differ by one in line
// index, so with at least 2 sets each set receives at most 2 of a level's
// lines — at most 4 lines per set across both levels. With 4 or more ways
// the footprint's own insertions evict none of its lines, so an immediate
// re-access hits everywhere and the MRU rotation reproduces the same final
// order. A single-set cache can see all 8 lines collide, so it needs 8 ways.
func (c *SetAssoc) RepeatHits() bool {
	return c.ways >= 8 || (c.ways >= 4 && c.setMask >= 1)
}

// AddHits implements Model.
func (c *SetAssoc) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *SetAssoc) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.stats = Stats{}
}

// Perfect is the paper's "perfect cache": every access hits, including the
// first touch of a line (compulsory misses are ignored too). Used to isolate
// load balancing from texture locality.
type Perfect struct {
	stats Stats
	_     [64]byte // no other node's state on these lines; see TestModelsArePadded
}

// NewPerfect returns a perfect cache.
func NewPerfect() *Perfect { return &Perfect{} }

// Access implements Model: always a hit.
func (c *Perfect) Access(texture.Addr) bool {
	c.stats.Accesses++
	return true
}

// AccessFootprint implements Model: 8 hits.
func (c *Perfect) AccessFootprint(*[8]texture.Addr) uint8 {
	c.stats.Accesses += 8
	return 0
}

// Stats implements Model.
func (c *Perfect) Stats() Stats { return c.stats }

// RepeatHits implements Model: everything hits, so repeats trivially do.
func (c *Perfect) RepeatHits() bool { return true }

// AddHits implements Model.
func (c *Perfect) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *Perfect) Reset() { c.stats = Stats{} }

// None is a cacheless node: every access misses, giving the 8-texels-per-
// fragment external bandwidth of the paper's "machine without a cache".
type None struct {
	stats Stats
	_     [64]byte // no other node's state on these lines; see TestModelsArePadded
}

// NewNone returns a cacheless model.
func NewNone() *None { return &None{} }

// Access implements Model: always a miss.
func (c *None) Access(texture.Addr) bool {
	c.stats.Accesses++
	c.stats.Misses++
	return false
}

// AccessFootprint implements Model: 8 misses.
func (c *None) AccessFootprint(*[8]texture.Addr) uint8 {
	c.stats.Accesses += 8
	c.stats.Misses += 8
	return 0xff
}

// Stats implements Model.
func (c *None) Stats() Stats { return c.stats }

// RepeatHits implements Model: nothing ever hits, so repeated lines must be
// replayed as real (missing) accesses.
func (c *None) RepeatHits() bool { return false }

// AddHits implements Model. Never reached through the engine (RepeatHits is
// false); counts plain accesses for interface completeness.
func (c *None) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *None) Reset() { c.stats = Stats{} }

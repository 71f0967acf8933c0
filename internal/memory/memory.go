// Package memory models the external texture-memory bus of one node.
//
// Following the paper, the bus is characterized by a single number: the
// maximum texel-to-fragment ratio it can sustain, i.e. how many texels it
// delivers per pixel-cycle (the engine scans one pixel per cycle). Memory
// *latency* is not modelled because the paper adopts the Igehy et al. result
// that prefetching with a fragment FIFO fully hides it; only *bandwidth*
// (occupancy) remains. A ratio of 1 corresponds to the paper's example of a
// 400 Mpixel/s engine on a 200 MHz 64-bit SDRAM bus.
//
// A cache miss fetches one 64-byte line (16 texels), occupying the bus for
// LineTexels/ratio cycles. The bus serializes fetches: a fetch starts no
// earlier than its issue time (set by the engine's prefetch fragment FIFO)
// and no earlier than the end of the previous fetch, which is why miss
// *bursts* can saturate a bus whose average demand is below capacity — an
// effect the paper calls out explicitly in section 6.
package memory

import (
	"fmt"
	"math"

	"repro/internal/texture"
)

// BusConfig describes one node's texture memory bus.
type BusConfig struct {
	// TexelsPerCycle is the paper's texel-to-fragment ratio knob: the
	// sustained bandwidth in texels per pixel-cycle. Zero (or +Inf) means an
	// infinite bus, used by the locality-only experiments.
	TexelsPerCycle float64
}

// Infinite reports whether the bus has unlimited bandwidth.
func (c BusConfig) Infinite() bool {
	return c.TexelsPerCycle <= 0 || math.IsInf(c.TexelsPerCycle, 1)
}

// LineCycles returns the bus occupancy of one line fetch in cycles.
func (c BusConfig) LineCycles() float64 {
	if c.Infinite() {
		return 0
	}
	return texture.LineTexels / c.TexelsPerCycle
}

// Validate rejects nonsensical configurations.
func (c BusConfig) Validate() error {
	if c.TexelsPerCycle < 0 {
		return fmt.Errorf("memory: negative bandwidth %v", c.TexelsPerCycle)
	}
	return nil
}

// BusStats accumulates traffic counters for one bus.
type BusStats struct {
	LinesFetched uint64
	BusyCycles   float64
}

// TexelsFetched returns the external-memory texel traffic.
func (s BusStats) TexelsFetched() uint64 { return s.LinesFetched * texture.LineTexels }

// Bus is the occupancy model. Times are in cycles since the node started,
// carried as float64 so that non-integer line costs (ratio 3, say) stay
// exact; the machine layer rounds once at the end.
type Bus struct {
	cfg        BusConfig
	lineCycles float64
	freeAt     float64
	stats      BusStats
	_          [64]byte // no other node's state on these lines; see TestBusIsPadded
}

// NewBus returns an idle bus. It panics on an invalid configuration; callers
// validate user-supplied configs first.
func NewBus(cfg BusConfig) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg, lineCycles: cfg.LineCycles()}
}

// Config returns the bus configuration.
func (b *Bus) Config() BusConfig { return b.cfg }

// Fetch requests lines cache-line fetches issued at issueTime (when the
// fragment enters the prefetch FIFO and its missing lines become known) and
// returns when the data is fully delivered. Fetches queue behind earlier
// traffic.
func (b *Bus) Fetch(issueTime float64, lines int) float64 {
	if lines <= 0 {
		return 0
	}
	b.stats.LinesFetched += uint64(lines)
	if b.cfg.Infinite() {
		return issueTime
	}
	start := issueTime
	if b.freeAt > start {
		start = b.freeAt
	}
	if start < 0 {
		start = 0
	}
	// The conversion rounds the product, so no compiler may fuse it into
	// the adds below (Go spec, "Arithmetic operators"): arm64 compilers
	// would, and move rows on non-dyadic buses.
	cost := float64(float64(lines) * b.lineCycles)
	b.freeAt = start + cost
	b.stats.BusyCycles += cost
	return b.freeAt
}

// FreeAt returns the time the bus drains all queued traffic.
func (b *Bus) FreeAt() float64 { return b.freeAt }

// Stats returns accumulated traffic counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Reset returns the bus to idle and clears counters.
func (b *Bus) Reset() {
	b.freeAt = 0
	b.stats = BusStats{}
}

package memory

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/texture"
)

func TestLineCycles(t *testing.T) {
	if got := (BusConfig{TexelsPerCycle: 1}).LineCycles(); got != 16 {
		t.Errorf("ratio-1 line cost = %v, want 16", got)
	}
	if got := (BusConfig{TexelsPerCycle: 2}).LineCycles(); got != 8 {
		t.Errorf("ratio-2 line cost = %v, want 8", got)
	}
	if got := (BusConfig{}).LineCycles(); got != 0 {
		t.Errorf("infinite bus line cost = %v, want 0", got)
	}
	if !(BusConfig{TexelsPerCycle: math.Inf(1)}).Infinite() {
		t.Error("+Inf bandwidth not recognized as infinite")
	}
}

func TestValidate(t *testing.T) {
	if err := (BusConfig{TexelsPerCycle: -1}).Validate(); err == nil {
		t.Error("negative bandwidth validated")
	}
	if err := (BusConfig{TexelsPerCycle: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestInfiniteBusNeverDelays(t *testing.T) {
	b := NewBus(BusConfig{})
	for i := 0; i < 100; i++ {
		scan := float64(i)
		if got := b.Fetch(scan, 3); got != scan {
			t.Fatalf("infinite bus delayed fetch to %v at scan %v", got, scan)
		}
	}
	if got := b.Stats().LinesFetched; got != 300 {
		t.Errorf("lines fetched = %d, want 300", got)
	}
	if got := b.Stats().TexelsFetched(); got != 300*texture.LineTexels {
		t.Errorf("texels fetched = %d", got)
	}
}

func TestSerializedFetches(t *testing.T) {
	// Ratio 1, no prefetch window: back-to-back single-line fetches at scan
	// time 0 pile up in 16-cycle steps.
	b := NewBus(BusConfig{TexelsPerCycle: 1})
	for i := 1; i <= 5; i++ {
		got := b.Fetch(0, 1)
		if got != float64(16*i) {
			t.Fatalf("fetch %d ready at %v, want %d", i, got, 16*i)
		}
	}
	if got := b.Stats().BusyCycles; got != 80 {
		t.Errorf("busy cycles = %v, want 80", got)
	}
}

func TestEarlyIssueCompletesEarly(t *testing.T) {
	// A fetch issued at time 68 on an idle ratio-1 bus completes at 84.
	b := NewBus(BusConfig{TexelsPerCycle: 1})
	if got := b.Fetch(68, 1); got != 84 {
		t.Errorf("fetch ready at %v, want 84", got)
	}
	// A later fetch issued at 100 starts after the issue time, not the
	// previous completion (bus idle in between).
	if got := b.Fetch(100, 1); got != 116 {
		t.Errorf("second fetch ready at %v, want 116", got)
	}
}

func TestFetchNeverStartsBeforeZero(t *testing.T) {
	b := NewBus(BusConfig{TexelsPerCycle: 2})
	// A negative issue time (no earlier constraint) must clamp to zero.
	if got := b.Fetch(-50, 1); got != 8 {
		t.Errorf("fetch ready at %v, want 8", got)
	}
}

func TestZeroLinesIsFree(t *testing.T) {
	b := NewBus(BusConfig{TexelsPerCycle: 1})
	if got := b.Fetch(50, 0); got != 0 {
		t.Errorf("zero-line fetch returned %v", got)
	}
	if b.Stats().LinesFetched != 0 || b.FreeAt() != 0 {
		t.Error("zero-line fetch mutated bus state")
	}
}

func TestReset(t *testing.T) {
	b := NewBus(BusConfig{TexelsPerCycle: 1})
	b.Fetch(0, 4)
	b.Reset()
	if b.FreeAt() != 0 || b.Stats().LinesFetched != 0 || b.Stats().BusyCycles != 0 {
		t.Error("reset incomplete")
	}
}

func TestMonotonicCompletionProperty(t *testing.T) {
	// Completion times are non-decreasing for non-decreasing scan times, and
	// never precede fetch issue; total busy cycles equal lines × lineCycles.
	f := func(seeds [20]uint8) bool {
		b := NewBus(BusConfig{TexelsPerCycle: 2})
		scan := 0.0
		last := 0.0
		var lines uint64
		for _, s := range seeds {
			scan += float64(s % 8)
			n := int(s % 4)
			if n == 0 {
				continue
			}
			lines += uint64(n)
			got := b.Fetch(scan, n)
			if got < last {
				return false
			}
			last = got
		}
		return b.Stats().LinesFetched == lines &&
			math.Abs(b.Stats().BusyCycles-float64(lines)*8) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestThroughputBound(t *testing.T) {
	// Saturating workload: 1 line per fragment, one fragment per cycle, on a
	// ratio-1 bus. After N fragments the bus must be ~16N cycles busy: the
	// engine would run 16x slower than its scanner, exactly the paper's
	// "cacheless machine needs ratio 8" arithmetic scaled to 16-texel lines.
	b := NewBus(BusConfig{TexelsPerCycle: 1})
	var ready float64
	const n = 1000
	for i := 0; i < n; i++ {
		ready = b.Fetch(float64(i), 1)
	}
	if ready < 16*n-64 || ready > 16*n+64 {
		t.Errorf("saturated completion = %v, want ≈ %d", ready, 16*n)
	}
}

// TestBusIsPadded: node pipelines replay on concurrent workers, and a machine
// allocates node p's bus right before node p+1's. A bus is written on every
// miss, so it must end in a blank pad of at least one 64-byte line, or the
// workers contend for the line.
func TestBusIsPadded(t *testing.T) {
	typ := reflect.TypeOf(Bus{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "_" || last.Type.Kind() != reflect.Array || last.Type.Size() < 64 {
		t.Errorf("%s ends in field %s %s, want a blank array of at least 64 bytes", typ, last.Name, last.Type)
	}
}

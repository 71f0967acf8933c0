package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/trace"
)

// fig8Buffers is Figure 8's triangle-FIFO sweep (internal/experiments).
var fig8Buffers = []int{1, 5, 10, 20, 50, 100, 500, 10000}

// TestCoupledRecurrenceFig8 runs the coupled driver across Figure 8's
// machine (truc640, 64-node block distribution) at a small scale: every
// buffer depth, three block widths, perfect and real cache. Each result
// must match the event-driven reference byte for byte, FIFO peaks
// included.
func TestCoupledRecurrenceFig8(t *testing.T) {
	s := benchSceneFor(t, "truc640", 0.2)
	variants := []struct {
		cache CacheKind
		bus   memory.BusConfig
	}{
		{CachePerfect, memory.BusConfig{}},
		{CacheReal, memory.BusConfig{TexelsPerCycle: 2}},
	}
	for _, w := range []int{4, 16, 64} {
		for _, v := range variants {
			for _, buf := range fig8Buffers {
				cfg := Config{
					Procs: 64, Distribution: distrib.BlockKind, TileSize: w,
					CacheKind: v.cache, Bus: v.bus, TriangleBuffer: buf,
				}
				run := func(force func(*Machine)) string {
					m, err := NewMachine(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					force(m)
					js, err := json.Marshal(m.Run())
					if err != nil {
						t.Fatal(err)
					}
					return string(js)
				}
				if want, got := run(forceOracle), run(forceCoupled); got != want {
					t.Errorf("block%d/%s/buffer%d: coupled driver diverged\nreference: %s\ncoupled: %s",
						w, v.cache, buf, want, got)
				}
			}
		}
	}
}

// BenchmarkCoupledReplay times one FIFO-coupled frame — massive11255 at
// scale 0.3 on 64 nodes with a 20-entry triangle buffer, replaying a
// prebuilt artifact — on the recurrence and on the event-driven reference.
func BenchmarkCoupledReplay(b *testing.B) {
	s := benchSceneFor(b, "massive11255", 0.3)
	cfg := Config{Procs: 64, TriangleBuffer: 20, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	cfgd := cfg.withDefaults()
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, cfgd.Procs,
		cfgd.Distribution, cfgd.TileSize, ArtifactOpts{})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name  string
		force func(*Machine)
	}{{"recurrence", forceCoupled}, {"oracle", forceOracle}} {
		b.Run(d.name, func(b *testing.B) {
			m, err := NewMachine(s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.force(m)
			if err := m.SetRasterArtifact(a); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run()
			}
		})
	}
}

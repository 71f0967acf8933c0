package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/trace"
)

// withDrawless returns a copy of s with drawless triangles interleaved:
// after every second triangle a degenerate one (three collinear vertices
// across the screen, so its bounding box still touches many tiles), and
// after every third one that lies wholly off screen. testScene produces
// neither, and they are exactly where the extension machines' routing
// rules differ from the static build's: sort-last skips degenerate
// triangles, and the build drops off-screen ones, shifting the routed
// triangles' indices away from their submission indices.
func withDrawless(s *trace.Scene) *trace.Scene {
	out := *s
	out.Triangles = nil
	w, h := float64(s.Screen.Width()), float64(s.Screen.Height())
	for i, t := range s.Triangles {
		out.Triangles = append(out.Triangles, t)
		k := float64(i%7) + 1
		if i%2 == 1 {
			a, b := geom.Vec2{X: k, Y: 2 * k}, geom.Vec2{X: w / 2, Y: h/2 + k}
			line := t
			line.V = [3]geom.Vec2{a, b, {X: 2*b.X - a.X, Y: 2*b.Y - a.Y}}
			out.Triangles = append(out.Triangles, line)
		}
		if i%3 == 2 {
			off := t
			for j := range off.V {
				off.V[j].X += 2 * w
			}
			out.Triangles = append(out.Triangles, off)
		}
	}
	return &out
}

// extensionCheck runs the dynamic tile queue (block configurations only)
// and sort-last on s under cfg, each in every order or assignment, and
// fails the test unless production and the hand-written references agree
// byte for byte after JSON encoding and production holds the physical
// invariants.
func extensionCheck(t *testing.T, s *trace.Scene, cfg Config) {
	t.Helper()
	encode := func(r *Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, cfg, r)
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	if cfg.Distribution == distrib.BlockKind {
		for _, o := range []DynamicOrder{DynamicScreenOrder, DynamicLPT} {
			want := encode(dynamicOracle(s, cfg, o))
			if got := encode(SimulateDynamic(s, cfg, o)); got != want {
				t.Errorf("dynamic %v diverged from its reference\nreference: %s\nmachine:   %s", o, want, got)
			}
		}
	}
	for _, a := range []SortLastAssignment{SortLastRoundRobin, SortLastChunked} {
		want := encode(sortLastOracle(s, cfg, a))
		if got := encode(SimulateSortLast(s, cfg, a)); got != want {
			t.Errorf("sort-last %v diverged from its reference\nreference: %s\nmachine:   %s", a, want, got)
		}
	}
}

// TestExtensionMachinesMatchOracle pins the dynamic tile queue and
// sort-last, both built and timed on the one frame path, to the
// hand-written loops they replaced, on a scene with degenerate and
// off-screen triangles, across cache kinds, buses, L2, machine sizes and
// tile sizes.
func TestExtensionMachinesMatchOracle(t *testing.T) {
	s := withDrawless(testScene(83, 48, 96))
	degenerate, offscreen := 0, 0
	for _, tri := range s.Triangles {
		if tri.Degenerate() {
			degenerate++
		}
		if tri.BBox().Intersect(s.Screen).Empty() {
			offscreen++
		}
	}
	if degenerate == 0 || offscreen == 0 {
		t.Fatalf("scene has %d degenerate and %d off-screen triangles, want both", degenerate, offscreen)
	}
	for _, ck := range []CacheKind{CacheReal, CachePerfect, CacheNone} {
		for _, bus := range []float64{0, 1} {
			for _, l2 := range []bool{false, true} {
				for _, procs := range []int{1, 3, 8} {
					for _, tile := range []int{4, 16, 32} {
						cfg := Config{
							Procs: procs, Distribution: distrib.BlockKind, TileSize: tile,
							CacheKind: ck, Bus: memory.BusConfig{TexelsPerCycle: bus},
						}
						if l2 {
							cfg.L2Config = l2Config()
							cfg.MainBus = memory.BusConfig{TexelsPerCycle: 1}
						}
						t.Run(fmt.Sprintf("%s/bus%v/l2=%v/p%d/t%d", ck, bus, l2, procs, tile), func(t *testing.T) {
							extensionCheck(t, s, cfg)
						})
					}
				}
			}
		}
	}
}

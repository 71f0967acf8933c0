package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/distrib"
	"repro/internal/trace"
)

func TestSimulateContextCancelled(t *testing.T) {
	s := testScene(3, 400, 256)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, s, Config{Procs: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateContextMatchesSimulate(t *testing.T) {
	s := testScene(4, 200, 128)
	cfg := Config{Procs: 8, TileSize: 8}
	plain, err := Simulate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A cancellable (but never-cancelled) context makes the drivers poll
	// it; polling must not change a single bit of the result.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stepped, err := SimulateContext(ctx, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != stepped.Cycles || plain.Fragments != stepped.Fragments ||
		plain.TrianglesRouted != stepped.TrianglesRouted {
		t.Fatalf("stepped run diverged: %+v vs %+v", plain, stepped)
	}
}

// TestReplayContextCancelled: with an artifact attached nothing is built,
// so cancellation rests on the drivers' own polls. A pre-cancelled context
// must return context.Canceled on both drivers, even for a frame far
// smaller than the poll interval.
func TestReplayContextCancelled(t *testing.T) {
	s := testScene(6, 40, 96)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(context.Background(), frames, 4, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name   string
		buffer int
	}{{"decoupled", 0}, {"coupled", 1}} {
		m, err := NewMachine(s, Config{Procs: 4, TriangleBuffer: c.buffer})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if got := m.decoupled(a.Frames[0].counts); got != (c.name == "decoupled") {
			t.Errorf("%s: dispatch rule picked decoupled = %v", c.name, got)
		}
	}
}

func TestSpeedupContextCancelled(t *testing.T) {
	s := testScene(5, 100, 128)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := SpeedupContext(ctx, s, Config{Procs: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExtensionContext: the dynamic tile queue and sort-last honour a
// pre-cancelled context, and a cancellable context that never fires leaves
// their results unchanged.
func TestExtensionContext(t *testing.T) {
	s := testScene(7, 120, 128)
	cfg := Config{Procs: 4, TileSize: 16}
	machines := map[string]func(context.Context) (*Result, error){
		"dynamic": func(ctx context.Context) (*Result, error) {
			return SimulateDynamicContext(ctx, s, cfg, DynamicLPT)
		},
		"sort-last": func(ctx context.Context) (*Result, error) {
			return SimulateSortLastContext(ctx, s, cfg, SortLastChunked)
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for name, run := range machines {
		if _, err := run(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		plain, err := run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		stepped, err := run(live)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(plain)
		got, _ := json.Marshal(stepped)
		if string(got) != string(want) {
			t.Errorf("%s: cancellable run diverged\nplain:       %s\ncancellable: %s", name, want, got)
		}
	}
}

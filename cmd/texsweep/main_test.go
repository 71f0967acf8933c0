package main

import (
	"context"
	"testing"

	"repro/internal/sweep"
)

// TestFlightFileNamesDistinct runs a small flight-recorded sweep over the
// buffer and bus axes and requires one distinct trace file name per
// configuration, so no recording overwrites another.
func TestFlightFileNamesDistinct(t *testing.T) {
	spec := sweep.Spec{
		Scene: "truc640", Scale: 0.2, Procs: []int{1, 4}, Sizes: []int{8, 16},
		Cache: "perfect", Buses: []float64{0.5, 1}, Buffers: []int{1, 20, 10000},
		Flight: true,
	}
	res, err := sweep.RunWith(context.Background(), spec, sweep.RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flights) != len(res.Rows) || len(res.Rows) != 2*2*2*3 {
		t.Fatalf("%d flights for %d rows, want 24 of each", len(res.Flights), len(res.Rows))
	}
	seen := map[string]int{}
	for i, f := range res.Flights {
		name := flightFileName(res.Spec, f, res.Rows[i])
		if j, dup := seen[name]; dup {
			t.Errorf("rows %d and %d both write %s", j, i, name)
		}
		seen[name] = i
	}

	// An axis-free sweep keeps the short names.
	row := sweep.Row{Procs: 4, Size: 16}
	if got, want := flightFileName(sweep.Spec{Scene: "truc640", Dist: "block"},
		sweep.Flight{Procs: 4, Size: 16}, row), "truc640_block16_p4.trace.json"; got != want {
		t.Errorf("axis-free name %q, want %q", got, want)
	}
}

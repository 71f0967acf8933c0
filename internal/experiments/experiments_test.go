package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smokeOpt keeps experiment tests fast; shape-sensitive tests use shapeOpt.
var (
	smokeOpt = Options{Scale: 0.2}
	shapeOpt = Options{Scale: 0.35}
)

func TestRegistry(t *testing.T) {
	all := All()
	wantIDs := []string{"table1", "fig5-imbalance", "fig5-speedup", "fig6-locality",
		"fig7", "fig7-bus2", "fig8-buffer", "fig9-images",
		"ext-l2", "ext-dynamic", "ext-prefetch", "ext-cache",
		"ext-sortlast", "ext-overlap", "ext-interleave"}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, want := range wantIDs {
		if all[i].ID != want {
			t.Errorf("experiment %d = %q, want %q", i, all[i].ID, want)
		}
		e, ok := ByID(want)
		if !ok || e.ID != want {
			t.Errorf("ByID(%q) failed", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestReportFormat(t *testing.T) {
	rep, err := RunTable1(context.Background(), smokeOpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	for _, want := range []string{"table1", "room3", "truc640", "unique texel/frag"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// cellValue extracts the numeric cell at (rowLabel, colIdx) from a table.
func cellValue(t *testing.T, tab interface {
	String() string
}, rowLabel string, colIdx int) float64 {
	t.Helper()
	for _, line := range strings.Split(tab.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > colIdx && fields[0] == rowLabel {
			v := strings.TrimSuffix(fields[colIdx], "%")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("cell (%s, %d) = %q not numeric", rowLabel, colIdx, fields[colIdx])
			}
			return f
		}
	}
	t.Fatalf("row %q not found in table:\n%s", rowLabel, tab.String())
	return 0
}

func TestFig5ImbalanceShape(t *testing.T) {
	rep, err := RunFig5Imbalance(context.Background(), shapeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 2 {
		t.Fatalf("want 2 tables, got %d", len(rep.Table))
	}
	// For every scene column, the 128-px block imbalance must exceed the
	// 4-px one, and SLI-32 must exceed SLI-1 (imbalance grows with size).
	block, sli := rep.Table[0], rep.Table[1]
	for col := 1; col <= 7; col++ {
		small := cellValue(t, block, "4", col)
		big := cellValue(t, block, "128", col)
		if big <= small {
			t.Errorf("block col %d: imbalance(128)=%v ≤ imbalance(4)=%v", col, big, small)
		}
		s1 := cellValue(t, sli, "1", col)
		s32 := cellValue(t, sli, "32", col)
		if s32 <= s1 {
			t.Errorf("sli col %d: imbalance(32)=%v ≤ imbalance(1)=%v", col, s32, s1)
		}
	}
}

func TestFig5SpeedupShape(t *testing.T) {
	rep, err := RunFig5Speedup(context.Background(), shapeOpt)
	if err != nil {
		t.Fatal(err)
	}
	block := rep.Table[0]
	// Setup overhead: with 64 processors, 1-px blocks must be slower than
	// 16-px blocks (col 1 = w1, col 5 = w16 after the procs column).
	w1 := cellValue(t, block, "64", 1)
	w16 := cellValue(t, block, "64", 5)
	if w1 >= w16 {
		t.Errorf("64p: w1 speedup %v not below w16 %v (setup overhead missing)", w1, w16)
	}
	// Load imbalance: 128-px blocks must also be below 16-px.
	w128 := cellValue(t, block, "64", 8)
	if w128 >= w16 {
		t.Errorf("64p: w128 speedup %v not below w16 %v (imbalance missing)", w128, w16)
	}
	// Speedup grows with processors at the sweet spot.
	if cellValue(t, block, "4", 5) >= cellValue(t, block, "64", 5) {
		t.Error("w16 speedup does not grow from 4 to 64 processors")
	}
}

func TestFig6LocalityShape(t *testing.T) {
	rep, err := RunFig6Locality(context.Background(), shapeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 4 {
		t.Fatalf("want 4 tables, got %d", len(rep.Table))
	}
	massiveBlock, massiveSLI := rep.Table[0], rep.Table[1]
	teapotBlock := rep.Table[2]
	// Ratio grows with processor count at small tiles (col 1 = w4 / l1).
	if cellValue(t, massiveBlock, "64", 1) <= cellValue(t, massiveBlock, "1", 1) {
		t.Error("32massive block w4: ratio does not grow with processors")
	}
	// Ratio shrinks as tiles grow (w4 vs w128 at 64 procs).
	if cellValue(t, massiveBlock, "64", 1) <= cellValue(t, massiveBlock, "64", 6) {
		t.Error("32massive block: small tiles not worse than large tiles")
	}
	// SLI-2 is worse than block-16 at 64 processors (paper's comparison).
	sli2 := cellValue(t, massiveSLI, "64", 2)
	block16 := cellValue(t, massiveBlock, "64", 3)
	if sli2 <= block16 {
		t.Errorf("SLI-2 ratio %v not above block-16 ratio %v", sli2, block16)
	}
	// teapot.full demands far more bandwidth than 32massive11255.
	if cellValue(t, teapotBlock, "64", 3) <= cellValue(t, massiveBlock, "64", 3) {
		t.Error("teapot.full not more bandwidth-hungry than 32massive11255")
	}
}

func TestFig8BufferShape(t *testing.T) {
	rep, err := RunFig8(context.Background(), shapeOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range rep.Table {
		// Speedup at the paper's best width (w16, col 5) must be
		// non-decreasing in buffer size, and buffer 1 clearly worse than
		// buffer 10000.
		small := cellValue(t, tab, "1", 5)
		mid := cellValue(t, tab, "50", 5)
		big := cellValue(t, tab, "10000", 5)
		if small >= big {
			t.Errorf("%s: buffer 1 speedup %v not below buffer 10000 %v",
				tab.Caption, small, big)
		}
		if mid > big+0.05*big {
			t.Errorf("%s: buffer 50 speedup %v above buffer 10000 %v",
				tab.Caption, mid, big)
		}
	}
}

func TestFig9WritesImages(t *testing.T) {
	dir := t.TempDir()
	opt := smokeOpt
	opt.OutDir = dir
	rep, err := RunFig9(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 1 || len(rep.Table[0].Rows) != 3 {
		t.Fatalf("unexpected report shape: %+v", rep.Table)
	}
	for _, name := range fig9Scenes {
		path := filepath.Join(dir, name+"_dc.pgm")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing image: %v", err)
		}
		if !bytes.HasPrefix(data, []byte("P5\n")) {
			t.Errorf("%s: not a binary PGM", path)
		}
		// The image must not be all-black or all-white.
		body := data[bytes.LastIndexByte(data[:32], '\n')+1:]
		minV, maxV := byte(255), byte(0)
		for _, b := range body {
			if b < minV {
				minV = b
			}
			if b > maxV {
				maxV = b
			}
		}
		if maxV != 255 || minV == 255 {
			t.Errorf("%s: degenerate image (min %d max %d)", path, minV, maxV)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig7 sweep is expensive")
	}
	rep, err := RunFig7(context.Background(), shapeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table) != 6 {
		t.Fatalf("want 6 tables, got %d", len(rep.Table))
	}
	// Tables: block ×{4,16,64}, then sli ×{4,16,64}.
	block64, sli64 := rep.Table[2], rep.Table[5]
	// At 64 processors, block's best speedup must beat SLI's best for a
	// majority of scenes.
	wins := 0
	for _, sceneRow := range []string{"room3", "teapot.full", "quake",
		"massive11255", "32massive11255", "blowout775", "truc640"} {
		bestOf := func(tab *stringerTable, n int) float64 {
			best := 0.0
			for c := 1; c <= n; c++ {
				if v := cellValue(t, tab, sceneRow, c); v > best {
					best = v
				}
			}
			return best
		}
		b := bestOf(&stringerTable{block64}, len(blockWidths))
		s := bestOf(&stringerTable{sli64}, len(sliLines))
		if b >= s {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("block best ≥ SLI best for only %d/7 scenes at 64 processors", wins)
	}
}

// stringerTable adapts *stats.Table to the cellValue helper's constraint.
type stringerTable struct {
	t interface{ String() string }
}

func (s *stringerTable) String() string { return s.t.String() }

package texture

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddRejectsNonPow2(t *testing.T) {
	m := NewManager()
	for _, dims := range [][2]int{{3, 4}, {4, 3}, {0, 4}, {4, 0}, {-4, 4}, {5, 5}} {
		if _, err := m.Add(dims[0], dims[1]); err == nil {
			t.Errorf("Add(%d, %d) succeeded, want error", dims[0], dims[1])
		}
	}
}

func TestMipChainLevels(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(64, 16)
	// 64x16 → 32x8 → 16x4 → 8x2 → 4x1 → 2x1 → 1x1 = 7 levels.
	if got := tex.NumLevels(); got != 7 {
		t.Fatalf("NumLevels = %d, want 7", got)
	}
	wantDims := [][2]int{{64, 16}, {32, 8}, {16, 4}, {8, 2}, {4, 1}, {2, 1}, {1, 1}}
	for l, want := range wantDims {
		w, h := tex.LevelSize(l)
		if w != want[0] || h != want[1] {
			t.Errorf("level %d = %dx%d, want %dx%d", l, w, h, want[0], want[1])
		}
	}
}

func TestFootprintBytes(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(16, 16)
	// Level byte sizes with 4x4 blocking: 16x16 → 16 blocks (1024 B),
	// 8x8 → 4 blocks (256 B), 4x4 → 1, 2x2 → 1, 1x1 → 1 (64 B each).
	want := 1024 + 256 + 64 + 64 + 64
	if got := tex.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	if m.TotalBytes() != want {
		t.Errorf("TotalBytes = %d, want %d", m.TotalBytes(), want)
	}
}

func TestAddressesLineAligned4x4(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(32, 32)
	// All 16 texels of one 4x4 block must fall in the same 64-byte line.
	line := tex.AddressOf(0, 8, 4) / LineBytes
	for du := int32(0); du < 4; du++ {
		for dv := int32(0); dv < 4; dv++ {
			a := tex.AddressOf(0, 8+du, 4+dv)
			if a/LineBytes != line {
				t.Errorf("texel (+%d,+%d) in line %d, want %d", du, dv, a/LineBytes, line)
			}
		}
	}
	// The adjacent block must be in a different line.
	if tex.AddressOf(0, 12, 4)/LineBytes == line {
		t.Error("adjacent 4x4 block shares the cache line")
	}
}

func TestAddressBijectionPerLevel(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(16, 8)
	seen := make(map[Addr][2]int32)
	for v := int32(0); v < 8; v++ {
		for u := int32(0); u < 16; u++ {
			a := tex.AddressOf(0, u, v)
			if prev, dup := seen[a]; dup {
				t.Fatalf("texels (%d,%d) and %v share address %d", u, v, prev, a)
			}
			seen[a] = [2]int32{u, v}
			if a%TexelBytes != 0 {
				t.Fatalf("address %d not texel-aligned", a)
			}
		}
	}
}

func TestWrapAddressing(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(8, 8)
	if tex.AddressOf(0, 8, 0) != tex.AddressOf(0, 0, 0) {
		t.Error("u wrap failed")
	}
	if tex.AddressOf(0, 0, 11) != tex.AddressOf(0, 0, 3) {
		t.Error("v wrap failed")
	}
	if tex.AddressOf(0, -1, 0) != tex.AddressOf(0, 7, 0) {
		t.Error("negative u wrap failed")
	}
}

func TestTexturesDisjoint(t *testing.T) {
	m := NewManager()
	a := m.MustAdd(16, 16)
	b := m.MustAdd(32, 8)
	// Address ranges must not overlap: highest address of a < base of b.
	maxA := Addr(0)
	for l := 0; l < a.NumLevels(); l++ {
		w, h := a.LevelSize(l)
		for v := 0; v < h; v++ {
			for u := 0; u < w; u++ {
				if addr := a.AddressOf(l, int32(u), int32(v)); addr > maxA {
					maxA = addr
				}
			}
		}
	}
	minB := b.AddressOf(0, 0, 0)
	for l := 0; l < b.NumLevels(); l++ {
		w, h := b.LevelSize(l)
		for v := 0; v < h; v++ {
			for u := 0; u < w; u++ {
				if addr := b.AddressOf(l, int32(u), int32(v)); addr < minB {
					minB = addr
				}
			}
		}
	}
	if maxA >= minB {
		t.Errorf("textures overlap: maxA=%d minB=%d", maxA, minB)
	}
	if m.Count() != 2 || m.Texture(0) != a || m.Texture(1) != b {
		t.Error("manager bookkeeping wrong")
	}
}

func TestBilinearFootprintNeighborhood(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(16, 16)
	var out [4]Addr
	// Sampling exactly at texel center (2.5, 3.5) — lu = 2.0 → texels 2,3.
	tex.BilinearFootprint(0, 2.5, 3.5, out[:])
	want := [4]Addr{
		tex.AddressOf(0, 2, 3),
		tex.AddressOf(0, 3, 3),
		tex.AddressOf(0, 2, 4),
		tex.AddressOf(0, 3, 4),
	}
	if out != want {
		t.Errorf("footprint = %v, want %v", out, want)
	}
}

func TestTrilinearFootprintLevels(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(64, 64)
	var out [8]Addr
	tex.TrilinearFootprint(20, 20, 1.3, &out)
	// First four addresses must be in level 1's range, next four in level 2's.
	l1lo, l1hi := levelRange(tex, 1)
	l2lo, l2hi := levelRange(tex, 2)
	for i := 0; i < 4; i++ {
		if out[i] < l1lo || out[i] >= l1hi {
			t.Errorf("addr[%d]=%d not in level 1 range [%d,%d)", i, out[i], l1lo, l1hi)
		}
	}
	for i := 4; i < 8; i++ {
		if out[i] < l2lo || out[i] >= l2hi {
			t.Errorf("addr[%d]=%d not in level 2 range [%d,%d)", i, out[i], l2lo, l2hi)
		}
	}
}

func TestTrilinearFootprintClampsAtChainEnd(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(4, 4)
	var out [8]Addr
	// LOD far beyond the chain: both halves must sample the 1x1 tail level
	// without panicking.
	tex.TrilinearFootprint(1, 1, 20, &out)
	lo, hi := levelRange(tex, tex.NumLevels()-1)
	for i, a := range out {
		if a < lo || a >= hi {
			t.Errorf("addr[%d]=%d outside tail level [%d,%d)", i, a, lo, hi)
		}
	}
	// Negative LOD (magnification) must sample the base level.
	tex.TrilinearFootprint(1, 1, -3, &out)
	lo0, hi0 := levelRange(tex, 0)
	for i := 0; i < 4; i++ {
		if out[i] < lo0 || out[i] >= hi0 {
			t.Errorf("magnified addr[%d]=%d outside base level", i, out[i])
		}
	}
}

// levelRange returns the [lo, hi) address range of level l by scanning it.
func levelRange(tex *Texture, l int) (lo, hi Addr) {
	w, h := tex.LevelSize(l)
	lo = tex.AddressOf(l, 0, 0)
	hi = lo
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			a := tex.AddressOf(l, int32(u), int32(v))
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
	}
	return lo, hi + TexelBytes
}

func TestAddressInBoundsProperty(t *testing.T) {
	m := NewManager()
	tex := m.MustAdd(128, 32)
	total := Addr(m.TotalBytes())
	f := func(l uint8, u, v int32) bool {
		lv := int(l) % tex.NumLevels()
		a := tex.AddressOf(lv, u, v)
		return a < total && a%TexelBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSpatialLocalityOfBlocking(t *testing.T) {
	// Walking a 4-texel-wide scan across the texture must touch far fewer
	// lines than texels — the whole premise of texture blocking.
	m := NewManager()
	tex := m.MustAdd(64, 64)
	lines := make(map[Addr]bool)
	texels := 0
	for v := int32(0); v < 16; v++ {
		for u := int32(0); u < 64; u++ {
			lines[tex.AddressOf(0, u, v)/LineBytes] = true
			texels++
		}
	}
	// 16 rows x 64 cols = 1024 texels = exactly 64 blocks.
	if len(lines) != 64 {
		t.Errorf("touched %d lines, want 64", len(lines))
	}
	_ = texels
}

func BenchmarkTrilinearFootprint(b *testing.B) {
	m := NewManager()
	tex := m.MustAdd(256, 256)
	var out [8]Addr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tex.TrilinearFootprint(float64(i%256), float64((i*7)%256), 0.5, &out)
	}
}

// BenchmarkSamplerFootprint is BenchmarkTrilinearFootprint with the mip pair
// resolved once, as the engine does per triangle.
func BenchmarkSamplerFootprint(b *testing.B) {
	m := NewManager()
	tex := m.MustAdd(256, 256)
	s := tex.Sampler(0.5)
	var out [8]Addr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Footprint(float64(i%256), float64((i*7)%256), &out)
	}
}

// BenchmarkSamplerNext steps a sampler along a row as the engine does, at
// three texel strides per pixel: 4 (every footprint moves to new lines, the
// worst case, against BenchmarkSamplerFootprint), 1 (lines repeat for a
// few pixels) and 0.125 (magnified: long repeats).
func BenchmarkSamplerNext(b *testing.B) {
	for _, step := range []float64{4, 1, 0.125} {
		b.Run(fmt.Sprint("step=", step), func(b *testing.B) {
			m := NewManager()
			tex := m.MustAdd(256, 256)
			s := tex.Sampler(0.5)
			var out [8]Addr
			same := 0
			u, v := 0.3, 17.6
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.Next(u, v, &out) {
					same++
				}
				u += step
				v += step / 8
			}
			b.ReportMetric(float64(same)/float64(b.N), "same/op")
		})
	}
}

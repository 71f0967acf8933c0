// Package texture models the texture memory layout of the simulated 3D
// accelerator: mipmapped textures stored in a blocked ("texture blocking")
// layout where each 64-byte cache line holds a 4×4 block of 4-byte texels,
// the configuration Hakura and Gupta showed to work best with a 16 KB texture
// cache and which the paper adopts unchanged.
//
// Textures must have power-of-two dimensions (the universal constraint of
// late-90s mipmapped hardware); texel coordinates wrap (GL_REPEAT), matching
// how the game scenes the paper traces tile their wall and floor textures.
package texture

import (
	"fmt"
	"math"
)

const (
	// TexelBytes is the size of one texel (32-bit RGBA).
	TexelBytes = 4
	// LineBytes is the size of one cache line / memory burst.
	LineBytes = 1 << LineShift
	// LineShift is log2(LineBytes): the line of address a is a >> LineShift.
	LineShift = 6
	// BlockW is the width and height in texels of one blocked tile; a 4×4
	// block of 4-byte texels fills exactly one 64-byte line.
	BlockW = 4
	// LineTexels is the number of texels in one cache line.
	LineTexels = LineBytes / TexelBytes
)

// Addr is a byte address in the simulated texture memory. Texture memory per
// node is a few megabytes, so 32 bits are ample.
type Addr = uint32

type level struct {
	base    Addr
	w, h    uint32 // texel dimensions (powers of two)
	maskU   uint32 // w-1, for wrap
	maskV   uint32 // h-1
	rowSize uint32 // bytes per row of blocks
}

// rowAddr is the address of column 0 of texel row vv (already wrapped): the
// block row's base plus the row's offset within its 4×4 blocks.
func (lv *level) rowAddr(vv uint32) Addr {
	return lv.base + (vv/BlockW)*lv.rowSize + (vv%BlockW)*BlockW*TexelBytes
}

// colOffset is the offset of texel column uu (already wrapped) from its
// row's address. rowAddr(vv)+colOffset(uu) is the one address formula.
func colOffset(uu uint32) Addr {
	return (uu/BlockW)*LineBytes + (uu%BlockW)*TexelBytes
}

// bilinear returns the 4 texel addresses of a bilinear sample of base-level
// coordinates (u, v) on this level, inv being 1/2^level: the 2×2
// neighborhood around texel-center coordinates (u*inv - 0.5, v*inv - 0.5),
// built from two row addresses and two column offsets.
func (lv *level) bilinear(inv, u, v float64) (a0, a1, a2, a3 Addr) {
	c0, c1 := lv.cols(int32(math.Floor(float64(u*inv) - 0.5)))
	r0, r1 := lv.rows(int32(math.Floor(float64(v*inv) - 0.5)))
	return r0 + c0, r0 + c1, r1 + c0, r1 + c1
}

// cols returns the column offsets of texel columns u0 and u0+1, wrapped.
func (lv *level) cols(u0 int32) (c0, c1 Addr) {
	return colOffset(uint32(u0) & lv.maskU), colOffset(uint32(u0+1) & lv.maskU)
}

// rows returns the row addresses of texel rows v0 and v0+1, wrapped.
func (lv *level) rows(v0 int32) (r0, r1 Addr) {
	return lv.rowAddr(uint32(v0) & lv.maskV), lv.rowAddr(uint32(v0+1) & lv.maskV)
}

// axisWindow returns the interval [lo, hi) of texel-center coordinates x
// whose floor i' puts texels i' and i'+1 in the same block columns (or
// rows) as i = ⌊x⌋ and i+1 on a level size texels wide (or high). A level
// at most BlockW wide is a single block column, so the interval is
// unbounded. On a wider level, wrapping keeps blocks whole, so the blocks
// depend on ⌊i' / BlockW⌋ alone: with r = i mod 4 < 3 both texels lie in
// i's block for every i' in [i−r, i−r+3), and with r = 3 they straddle
// two blocks for i' = i only.
func axisWindow(i int32, size uint32) (lo, hi float64) {
	if size <= BlockW {
		return -inf, inf
	}
	r := uint32(i) % BlockW
	base := float64(i - int32(r)) // cannot wrap: i rounded down to a multiple of 4
	return base + windowLo[r], base + windowHi[r]
}

var (
	inf = math.Inf(1)
	// windowLo and windowHi are axisWindow's bounds relative to i−r, by r.
	windowLo = [BlockW]float64{0, 0, 0, 3}
	windowHi = [BlockW]float64{3, 3, 3, 4}
)

// levelScale is 1/2^l, the factor from base-level to level-l coordinates.
// It is an exact power of two, so u*levelScale(l) is exact.
func levelScale(l int) float64 { return 1.0 / float64(uint32(1)<<uint(l)) }

// Texture is one mipmapped texture resident in texture memory.
type Texture struct {
	id     int32
	levels []level
	bytes  uint32 // total footprint including all mip levels
}

// ID returns the texture's identifier within its Manager.
func (t *Texture) ID() int32 { return t.id }

// Width returns the base-level width in texels.
func (t *Texture) Width() int { return int(t.levels[0].w) }

// Height returns the base-level height in texels.
func (t *Texture) Height() int { return int(t.levels[0].h) }

// NumLevels returns the number of mipmap levels (down to 1×1).
func (t *Texture) NumLevels() int { return len(t.levels) }

// Bytes returns the texture's total memory footprint, all levels included.
func (t *Texture) Bytes() int { return int(t.bytes) }

// LevelSize returns the texel dimensions of mip level l.
func (t *Texture) LevelSize(l int) (w, h int) {
	lv := t.levels[l]
	return int(lv.w), int(lv.h)
}

// AddressOf returns the byte address of texel (u, v) at mip level l, with
// wrap-around addressing. Addresses are stable for the lifetime of the
// Manager, so they can be fed directly to the cache simulator.
func (t *Texture) AddressOf(l int, u, v int32) Addr {
	lv := &t.levels[l]
	return lv.rowAddr(uint32(v)&lv.maskV) + colOffset(uint32(u)&lv.maskU)
}

// clampLevel limits l to the texture's mip chain.
func (t *Texture) clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= len(t.levels) {
		return len(t.levels) - 1
	}
	return l
}

// BilinearFootprint writes the 4 texel addresses of a bilinear sample of
// (u, v) — base-level texel coordinates — at mip level l into out, which
// must hold at least 4 addresses.
func (t *Texture) BilinearFootprint(l int, u, v float64, out []Addr) {
	l = t.clampLevel(l)
	out[0], out[1], out[2], out[3] = t.levels[l].bilinear(levelScale(l), u, v)
}

// Sampler generates the trilinear footprints of one texture at one level of
// detail: the two bracketing mip levels and their coordinate scales,
// resolved once (per triangle) instead of once per fragment.
//
// For Next it also keeps a line window: for each of the four texel-center
// coordinates a footprint is built from (u and v on each level), the
// interval [lo, hi) over which the lines of the last footprint Next wrote
// stay the same. A new Sampler's window is empty.
type Sampler struct {
	l0, l1     level
	inv0, inv1 float64
	lo, hi     [4]float64 // x0, y0 (level l0), x1, y1 (level l1)
}

// Sampler resolves the mip pair a trilinear filter at level-of-detail lod
// reads: level ⌊lod⌋ and the next one, both clamped to the mip chain (a
// negative lod magnifies the base level).
func (t *Texture) Sampler(lod float64) Sampler {
	l0 := int(lod)
	if lod < 0 {
		l0 = 0
	}
	l0 = t.clampLevel(l0)
	l1 := t.clampLevel(l0 + 1)
	return Sampler{l0: t.levels[l0], l1: t.levels[l1], inv0: levelScale(l0), inv1: levelScale(l1)}
}

// Footprint writes the 8 texel addresses a trilinear filter touches for
// base-level coordinates (u, v): a 2×2 bilinear footprint in each of the
// two bracketing mip levels. This is the "8 texels per pixel" cost the
// paper's bandwidth analysis is built on.
func (s *Sampler) Footprint(u, v float64, out *[8]Addr) {
	out[0], out[1], out[2], out[3] = s.l0.bilinear(s.inv0, u, v)
	out[4], out[5], out[6], out[7] = s.l1.bilinear(s.inv1, u, v)
}

// Next is Footprint for a caller stepping along a span that only needs the
// footprint's lines. When (u, v) lies inside the line window — its eight
// addresses fall in the same 64-byte lines, in the same order, as those of
// the footprint Next last wrote to out — it leaves out alone and reports
// same. Otherwise it writes the footprint of (u, v) to out, as Footprint
// does, and moves the window to it. out must be the same array on every
// call.
func (s *Sampler) Next(u, v float64, out *[8]Addr) (same bool) {
	// The window holds the very x the floors are taken of: bounds on u and
	// v instead would disagree with them wherever u*inv - 0.5 rounds onto
	// an interval's end.
	x0, y0 := float64(u*s.inv0)-0.5, float64(v*s.inv0)-0.5
	x1, y1 := float64(u*s.inv1)-0.5, float64(v*s.inv1)-0.5
	if x0 >= s.lo[0] && x0 < s.hi[0] && y0 >= s.lo[1] && y0 < s.hi[1] &&
		x1 >= s.lo[2] && x1 < s.hi[2] && y1 >= s.lo[3] && y1 < s.hi[3] {
		return true
	}
	i0, j0 := int32(math.Floor(x0)), int32(math.Floor(y0))
	i1, j1 := int32(math.Floor(x1)), int32(math.Floor(y1))
	c0, c1 := s.l0.cols(i0)
	r0, r1 := s.l0.rows(j0)
	out[0], out[1], out[2], out[3] = r0+c0, r0+c1, r1+c0, r1+c1
	c0, c1 = s.l1.cols(i1)
	r0, r1 = s.l1.rows(j1)
	out[4], out[5], out[6], out[7] = r0+c0, r0+c1, r1+c0, r1+c1
	s.lo[0], s.hi[0] = axisWindow(i0, s.l0.w)
	s.lo[1], s.hi[1] = axisWindow(j0, s.l0.h)
	s.lo[2], s.hi[2] = axisWindow(i1, s.l1.w)
	s.lo[3], s.hi[3] = axisWindow(j1, s.l1.h)
	return false
}

// TrilinearFootprint is Sampler(lod).Footprint(u, v, out), for callers
// sampling a single fragment.
func (t *Texture) TrilinearFootprint(u, v, lod float64, out *[8]Addr) {
	s := t.Sampler(lod)
	s.Footprint(u, v, out)
}

// Manager allocates textures in a single flat texture-memory address space,
// mirroring the paper's private per-node texture memory that holds all the
// scene's textures.
type Manager struct {
	textures []*Texture
	next     Addr
}

// NewManager returns an empty texture memory.
func NewManager() *Manager {
	return &Manager{}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Add allocates a mipmapped texture of the given base dimensions and returns
// it. Dimensions must be powers of two.
func (m *Manager) Add(w, h int) (*Texture, error) {
	if !isPow2(w) || !isPow2(h) {
		return nil, fmt.Errorf("texture: dimensions %dx%d are not powers of two", w, h)
	}
	t := &Texture{id: int32(len(m.textures))}
	base := m.next
	lw, lh := uint32(w), uint32(h)
	for {
		blocksX := (lw + BlockW - 1) / BlockW
		blocksY := (lh + BlockW - 1) / BlockW
		t.levels = append(t.levels, level{
			base:    base,
			w:       lw,
			h:       lh,
			maskU:   lw - 1,
			maskV:   lh - 1,
			rowSize: blocksX * LineBytes,
		})
		base += blocksX * blocksY * LineBytes
		if lw == 1 && lh == 1 {
			break
		}
		if lw > 1 {
			lw >>= 1
		}
		if lh > 1 {
			lh >>= 1
		}
	}
	t.bytes = base - m.next
	m.next = base
	m.textures = append(m.textures, t)
	return t, nil
}

// MustAdd is Add for statically-known-valid dimensions.
func (m *Manager) MustAdd(w, h int) *Texture {
	t, err := m.Add(w, h)
	if err != nil {
		panic(err)
	}
	return t
}

// Texture returns the texture with the given id.
func (m *Manager) Texture(id int32) *Texture { return m.textures[id] }

// Count returns the number of allocated textures.
func (m *Manager) Count() int { return len(m.textures) }

// TotalBytes returns the total texture memory footprint.
func (m *Manager) TotalBytes() int { return int(m.next) }

// TotalTexels returns the number of texels in the address space, all levels
// of all textures included (the denominator for unique-texel bitmaps).
func (m *Manager) TotalTexels() int { return int(m.next) / TexelBytes }

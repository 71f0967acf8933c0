// Package distrib implements the static screen distributions the paper
// compares: square-block interleaving and scan-line interleaving (SLI). A
// distribution assigns every screen pixel to exactly one texture-mapping
// processor; assignments are static and "hard-coded in the chip", so tiles
// are interleaved round-robin to spread the depth-complexity hot spots.
package distrib

import (
	"fmt"

	"repro/internal/geom"
)

// Distribution is a static partition of the screen over NumProcs processors.
type Distribution interface {
	// Name identifies the scheme and its size parameter, e.g. "block16".
	Name() string
	// NumProcs returns the processor count.
	NumProcs() int
	// Screen returns the partitioned screen rectangle.
	Screen() geom.Rect
	// Owner returns the processor that draws pixel (x, y), which must lie
	// inside Screen.
	Owner(x, y int) int
	// Route appends to dst the processors owning at least one tile that
	// intersects bbox (the triangle-routing rule: a processor receives a
	// triangle when the triangle's bounding box touches its region, and pays
	// at least the setup cost for it).
	Route(bbox geom.Rect, dst []int) []int
	// ForEachOwnedSegment splits the pixel row segment [x0, x1) on row y into
	// runs that each lie in one owner's region, calling fn for each in
	// left-to-right order: the cuts at every tile boundary for a block
	// distribution, even between adjacent tiles of one owner (so on one
	// processor at every boundary), and the whole segment for SLI. Runs are
	// not merged, so the segments a processor receives depend on the tile
	// size. This is the demultiplexing step between the shared rasterizer
	// and the per-processor scan loops.
	ForEachOwnedSegment(y, x0, x1 int, fn func(proc, x0, x1 int))
}

// Block is the square-block-interleaved distribution: the screen is cut into
// Width×Width tiles assigned round-robin in row-major tile order. The
// optional skew shifts each tile row's assignment by one extra processor,
// which breaks the column aliasing the plain row-major interleave suffers
// when the tile-row length is a multiple of the processor count (a vertical
// feature then lands entirely on one processor).
type Block struct {
	screen    geom.Rect
	width     int
	procs     int
	tilesX    int
	rowStride int
	skewed    bool
}

// NewBlock returns a block distribution of screen over procs processors with
// square tiles of the given width.
func NewBlock(screen geom.Rect, procs, width int) (*Block, error) {
	return newBlock(screen, procs, width, false)
}

// NewBlockSkewed returns a block distribution whose tile rows are offset by
// one processor each (a skewed/rotated interleave).
func NewBlockSkewed(screen geom.Rect, procs, width int) (*Block, error) {
	return newBlock(screen, procs, width, true)
}

func newBlock(screen geom.Rect, procs, width int, skewed bool) (*Block, error) {
	if err := checkArgs(screen, procs); err != nil {
		return nil, err
	}
	if width <= 0 {
		return nil, fmt.Errorf("distrib: block width %d must be positive", width)
	}
	tilesX := (screen.Width() + width - 1) / width
	rowStride := tilesX
	if skewed {
		rowStride = tilesX + 1
	}
	return &Block{screen: screen, width: width, procs: procs,
		tilesX: tilesX, rowStride: rowStride, skewed: skewed}, nil
}

// Name implements Distribution.
func (b *Block) Name() string {
	if b.skewed {
		return fmt.Sprintf("blockskew%d", b.width)
	}
	return fmt.Sprintf("block%d", b.width)
}

// NumProcs implements Distribution.
func (b *Block) NumProcs() int { return b.procs }

// Screen implements Distribution.
func (b *Block) Screen() geom.Rect { return b.screen }

// Width returns the tile width in pixels.
func (b *Block) Width() int { return b.width }

// Owner implements Distribution.
func (b *Block) Owner(x, y int) int {
	tx := (x - b.screen.X0) / b.width
	ty := (y - b.screen.Y0) / b.width
	return (ty*b.rowStride + tx) % b.procs
}

// Route implements Distribution.
func (b *Block) Route(bbox geom.Rect, dst []int) []int {
	r := bbox.Intersect(b.screen)
	if r.Empty() {
		return dst
	}
	tx0 := (r.X0 - b.screen.X0) / b.width
	tx1 := (r.X1 - 1 - b.screen.X0) / b.width
	ty0 := (r.Y0 - b.screen.Y0) / b.width
	ty1 := (r.Y1 - 1 - b.screen.Y0) / b.width
	nTiles := (tx1 - tx0 + 1) * (ty1 - ty0 + 1)
	if nTiles >= b.procs && (tx1-tx0+1) >= b.procs {
		// A full row of ≥procs consecutive tiles covers every processor.
		for p := 0; p < b.procs; p++ {
			dst = append(dst, p)
		}
		return dst
	}
	return routeByTiles(dst, b.procs, tx0, tx1, ty0, ty1, func(tx, ty int) int {
		return (ty*b.rowStride + tx) % b.procs
	})
}

// ForEachOwnedSegment implements Distribution: one run per tile the
// segment crosses.
func (b *Block) ForEachOwnedSegment(y, x0, x1 int, fn func(proc, x0, x1 int)) {
	ty := (y - b.screen.Y0) / b.width
	rowBase := ty * b.rowStride
	for x := x0; x < x1; {
		tx := (x - b.screen.X0) / b.width
		end := b.screen.X0 + (tx+1)*b.width
		if end > x1 {
			end = x1
		}
		fn((rowBase+tx)%b.procs, x, end)
		x = end
	}
}

// SLI is the scan-line-interleaved distribution: groups of adjacent rows,
// all of one height, assigned round-robin, as in the Voodoo2 (1 line) and
// 3DLabs JetStream (4 lines) products the paper cites.
type SLI struct {
	screen geom.Rect
	lines  int
	procs  int
}

// NewSLI returns an SLI distribution of screen over procs processors with
// groups of the given number of adjacent lines.
func NewSLI(screen geom.Rect, procs, lines int) (*SLI, error) {
	if err := checkArgs(screen, procs); err != nil {
		return nil, err
	}
	if lines <= 0 {
		return nil, fmt.Errorf("distrib: SLI group of %d lines must be positive", lines)
	}
	return &SLI{screen: screen, lines: lines, procs: procs}, nil
}

// Name implements Distribution.
func (s *SLI) Name() string { return fmt.Sprintf("sli%d", s.lines) }

// NumProcs implements Distribution.
func (s *SLI) NumProcs() int { return s.procs }

// Screen implements Distribution.
func (s *SLI) Screen() geom.Rect { return s.screen }

// Owner implements Distribution.
func (s *SLI) Owner(x, y int) int {
	return ((y - s.screen.Y0) / s.lines) % s.procs
}

// Route implements Distribution.
func (s *SLI) Route(bbox geom.Rect, dst []int) []int {
	r := bbox.Intersect(s.screen)
	if r.Empty() {
		return dst
	}
	g0 := (r.Y0 - s.screen.Y0) / s.lines
	g1 := (r.Y1 - 1 - s.screen.Y0) / s.lines
	n := g1 - g0 + 1
	if n >= s.procs {
		for p := 0; p < s.procs; p++ {
			dst = append(dst, p)
		}
		return dst
	}
	for g := g0; g <= g1; g++ {
		dst = append(dst, g%s.procs)
	}
	return dst
}

// ForEachOwnedSegment implements Distribution: a row has one owner.
func (s *SLI) ForEachOwnedSegment(y, x0, x1 int, fn func(proc, x0, x1 int)) {
	if x0 < x1 {
		fn(s.Owner(x0, y), x0, x1)
	}
}

func checkArgs(screen geom.Rect, procs int) error {
	if screen.Empty() {
		return fmt.Errorf("distrib: empty screen %v", screen)
	}
	if procs <= 0 {
		return fmt.Errorf("distrib: processor count %d must be positive", procs)
	}
	return nil
}

// routeByTiles enumerates the tile rectangle, deduplicating owners. Used for
// small routings only; the all-processors fast path handles big triangles.
// For the common machine sizes (≤ 64 processors) the dedup set is a stack
// bitmask, keeping triangle routing allocation-free on the hot path.
func routeByTiles(dst []int, procs, tx0, tx1, ty0, ty1 int, owner func(tx, ty int) int) []int {
	if procs <= 64 {
		var seen uint64
		n := 0
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				p := owner(tx, ty)
				if seen&(1<<uint(p)) == 0 {
					seen |= 1 << uint(p)
					dst = append(dst, p)
					n++
					if n == procs {
						return dst
					}
				}
			}
		}
		return dst
	}
	seen := make(map[int]bool, 8)
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			p := owner(tx, ty)
			if !seen[p] {
				seen[p] = true
				dst = append(dst, p)
				if len(seen) == procs {
					return dst
				}
			}
		}
	}
	return dst
}

// Kind selects a distribution family in configuration structs.
type Kind int

const (
	// BlockKind is square-block interleaving; the size parameter is the
	// block width in pixels.
	BlockKind Kind = iota
	// SLIKind is scan-line interleaving; the size parameter is the number of
	// adjacent lines per group.
	SLIKind
	// BlockSkewedKind is square-block interleaving with each tile row's
	// assignment offset by one processor (ablation of the interleave
	// pattern).
	BlockSkewedKind
)

// String returns "block" or "sli".
func (k Kind) String() string {
	switch k {
	case BlockKind:
		return "block"
	case SLIKind:
		return "sli"
	case BlockSkewedKind:
		return "blockskew"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds a distribution of the given kind and size parameter.
func New(kind Kind, screen geom.Rect, procs, size int) (Distribution, error) {
	switch kind {
	case BlockKind:
		return NewBlock(screen, procs, size)
	case SLIKind:
		return NewSLI(screen, procs, size)
	case BlockSkewedKind:
		return NewBlockSkewed(screen, procs, size)
	default:
		return nil, fmt.Errorf("distrib: unknown kind %d", int(kind))
	}
}

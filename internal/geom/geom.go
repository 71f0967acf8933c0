// Package geom provides the screen-space geometry primitives used by the
// texture-mapping simulator: 2-D vectors, triangles with affine texture
// mappings, bounding boxes and mipmap level-of-detail computation.
//
// All coordinates are in pixels with the origin at the top-left corner of the
// screen, x growing rightwards and y growing downwards, matching the scan
// order of the simulated rasterizer. Texture coordinates are in texels (not
// normalized), because the simulator addresses texel blocks directly.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2-D point or vector in pixel or texel space.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Cross returns the z component of the cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return float64(v.X*w.Y) - float64(v.Y*w.X) }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Rect is a half-open axis-aligned pixel rectangle [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Width returns the number of pixel columns in r (0 if empty).
func (r Rect) Width() int {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0
}

// Height returns the number of pixel rows in r (0 if empty).
func (r Rect) Height() int {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the number of pixels in r.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Contains reports whether pixel (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0),
		Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1),
		Y1: min(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// TexMap is an affine mapping from screen space to texel space:
//
//	u(x, y) = U0 + DuDx*x + DuDy*y
//	v(x, y) = V0 + DvDx*x + DvDy*y
//
// The simulated hardware interpolates texture coordinates linearly across a
// triangle, so an affine map per triangle captures exactly the information the
// paper's Mesa-derived triangle traces carried.
type TexMap struct {
	U0, V0     float64
	DuDx, DuDy float64
	DvDx, DvDy float64
}

// At returns the texel coordinate for screen position (x, y).
func (m TexMap) At(x, y float64) Vec2 {
	return Vec2{
		X: m.U0 + float64(m.DuDx*x) + float64(m.DuDy*y),
		Y: m.V0 + float64(m.DvDx*x) + float64(m.DvDy*y),
	}
}

// FootprintScale returns the larger of the two screen-axis texel footprints,
// i.e. how many texels one pixel step covers in the worst direction. It is the
// quantity mipmap LOD selection is based on.
func (m TexMap) FootprintScale() float64 {
	du := math.Hypot(m.DuDx, m.DvDx)
	dv := math.Hypot(m.DuDy, m.DvDy)
	return math.Max(du, dv)
}

// LOD returns the mipmap level-of-detail λ = log2(FootprintScale), clamped to
// be non-negative (magnified textures sample the base level).
func (m TexMap) LOD() float64 {
	s := m.FootprintScale()
	if s <= 1 {
		return 0
	}
	return math.Log2(s)
}

// Triangle is a screen-space triangle carrying a texture binding. Vertices
// are in pixel coordinates; Tex maps pixels to texels on texture TexID.
type Triangle struct {
	V     [3]Vec2
	TexID int32
	Tex   TexMap
}

// BBox returns the integer pixel bounding box of the triangle: the smallest
// half-open rectangle containing every pixel center the triangle can cover.
func (t Triangle) BBox() Rect {
	minX, minY := t.V[0].X, t.V[0].Y
	maxX, maxY := minX, minY
	for _, v := range t.V[1:] {
		minX = math.Min(minX, v.X)
		minY = math.Min(minY, v.Y)
		maxX = math.Max(maxX, v.X)
		maxY = math.Max(maxY, v.Y)
	}
	r := Rect{
		X0: int(math.Floor(minX)),
		Y0: int(math.Floor(minY)),
		X1: int(math.Ceil(maxX)) + 1,
		Y1: int(math.Ceil(maxY)) + 1,
	}
	return r
}

// SignedArea returns the signed area of the triangle in pixels: positive for
// counter-clockwise winding in the screen's y-down coordinate system.
func (t Triangle) SignedArea() float64 {
	return 0.5 * t.V[1].Sub(t.V[0]).Cross(t.V[2].Sub(t.V[0]))
}

// Area returns the absolute area of the triangle in pixels.
func (t Triangle) Area() float64 { return math.Abs(t.SignedArea()) }

// Degenerate reports whether the triangle has (near) zero area and therefore
// covers no pixel centers reliably.
func (t Triangle) Degenerate() bool { return t.Area() < 1e-12 }

package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec2Ops(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Cross(b); got != 1*(-4)-2*3 {
		t.Errorf("Cross = %v", got)
	}
	if got := b.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 3}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if r.Width() != 4 || r.Height() != 3 || r.Area() != 12 {
		t.Errorf("dims = %d x %d area %d", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(0, 0) || !r.Contains(3, 2) {
		t.Error("Contains missed interior corners")
	}
	if r.Contains(4, 0) || r.Contains(0, 3) || r.Contains(-1, 0) {
		t.Error("Contains accepted exterior point")
	}
	var empty Rect
	if !empty.Empty() || empty.Width() != 0 || empty.Area() != 0 {
		t.Error("zero Rect should be empty with zero dims")
	}
	inverted := Rect{5, 5, 2, 2}
	if !inverted.Empty() || inverted.Width() != 0 {
		t.Error("inverted Rect should be empty")
	}
}

func TestRectIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Rect
	}{
		{Rect{0, 0, 10, 10}, Rect{5, 5, 15, 15}, Rect{5, 5, 10, 10}},
		{Rect{0, 0, 10, 10}, Rect{10, 0, 20, 10}, Rect{}}, // touching edges share nothing
		{Rect{0, 0, 10, 10}, Rect{2, 3, 4, 5}, Rect{2, 3, 4, 5}},
		{Rect{0, 0, 4, 4}, Rect{8, 8, 12, 12}, Rect{}},
	}
	for i, c := range cases {
		if got := c.a.Intersect(c.b); got != c.want {
			t.Errorf("case %d: Intersect = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersect(c.a); got != c.want {
			t.Errorf("case %d: Intersect not symmetric: %v", i, got)
		}
	}
}

func TestRectIntersectProperty(t *testing.T) {
	// The intersection contains exactly the points contained in both.
	f := func(ax0, ay0, aw, ah, bx0, by0, bw, bh int8, px, py int8) bool {
		a := Rect{int(ax0), int(ay0), int(ax0) + int(aw%16), int(ay0) + int(ah%16)}
		b := Rect{int(bx0), int(by0), int(bx0) + int(bw%16), int(by0) + int(bh%16)}
		x, y := int(px), int(py)
		inBoth := a.Contains(x, y) && b.Contains(x, y)
		return a.Intersect(b).Contains(x, y) == inBoth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTexMapAt(t *testing.T) {
	m := TexMap{U0: 10, V0: 20, DuDx: 2, DuDy: 0.5, DvDx: -1, DvDy: 3}
	got := m.At(4, 2)
	want := Vec2{10 + 8 + 1, 20 - 4 + 6}
	if math.Abs(got.X-want.X) > 1e-12 || math.Abs(got.Y-want.Y) > 1e-12 {
		t.Errorf("At = %v, want %v", got, want)
	}
}

func TestTexMapLOD(t *testing.T) {
	// Identity-scale map: one texel per pixel, LOD 0.
	id := TexMap{DuDx: 1, DvDy: 1}
	if got := id.LOD(); got != 0 {
		t.Errorf("identity LOD = %v", got)
	}
	// Two texels per pixel: LOD 1.
	m2 := TexMap{DuDx: 2, DvDy: 2}
	if got := m2.LOD(); math.Abs(got-1) > 1e-12 {
		t.Errorf("2x LOD = %v", got)
	}
	// Magnified (half texel per pixel): clamped to 0.
	mHalf := TexMap{DuDx: 0.5, DvDy: 0.5}
	if got := mHalf.LOD(); got != 0 {
		t.Errorf("magnified LOD = %v, want 0", got)
	}
	// Anisotropic: LOD follows the worse axis.
	anis := TexMap{DuDx: 4, DvDy: 1}
	if got := anis.LOD(); math.Abs(got-2) > 1e-12 {
		t.Errorf("anisotropic LOD = %v, want 2", got)
	}
}

func TestTriangleArea(t *testing.T) {
	tri := Triangle{V: [3]Vec2{{0, 0}, {10, 0}, {0, 10}}}
	if got := tri.Area(); got != 50 {
		t.Errorf("Area = %v", got)
	}
	// Winding flips the sign but not the magnitude.
	flipped := Triangle{V: [3]Vec2{{0, 0}, {0, 10}, {10, 0}}}
	if tri.SignedArea() != -flipped.SignedArea() {
		t.Error("SignedArea did not flip with winding")
	}
	if flipped.Area() != 50 {
		t.Errorf("flipped Area = %v", flipped.Area())
	}
	deg := Triangle{V: [3]Vec2{{0, 0}, {5, 5}, {10, 10}}}
	if !deg.Degenerate() {
		t.Error("collinear triangle not degenerate")
	}
	if tri.Degenerate() {
		t.Error("real triangle reported degenerate")
	}
}

func TestTriangleBBox(t *testing.T) {
	tri := Triangle{V: [3]Vec2{{1.5, 2.5}, {10.1, 3}, {4, 12.9}}}
	bb := tri.BBox()
	// Every vertex must be strictly inside the half-open box bounds.
	for _, v := range tri.V {
		if v.X < float64(bb.X0) || v.X >= float64(bb.X1) ||
			v.Y < float64(bb.Y0) || v.Y >= float64(bb.Y1) {
			t.Errorf("vertex %v outside bbox %v", v, bb)
		}
	}
}

func TestTriangleBBoxProperty(t *testing.T) {
	f := func(coords [6]float32) bool {
		tri := Triangle{V: [3]Vec2{
			{float64(coords[0]), float64(coords[1])},
			{float64(coords[2]), float64(coords[3])},
			{float64(coords[4]), float64(coords[5])},
		}}
		for _, v := range tri.V {
			if math.IsNaN(v.X) || math.IsInf(v.X, 0) || math.IsNaN(v.Y) || math.IsInf(v.Y, 0) {
				return true // skip non-finite inputs
			}
			if math.Abs(v.X) > 1e6 || math.Abs(v.Y) > 1e6 {
				return true // int conversion overflow range is out of scope
			}
		}
		bb := tri.BBox()
		for _, v := range tri.V {
			if v.X < float64(bb.X0) || v.X > float64(bb.X1) ||
				v.Y < float64(bb.Y0) || v.Y > float64(bb.Y1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFootprintScale(t *testing.T) {
	// A pure rotation of texel space keeps the footprint at 1.
	m := TexMap{DuDx: math.Cos(0.3), DvDx: math.Sin(0.3), DuDy: -math.Sin(0.3), DvDy: math.Cos(0.3)}
	if got := m.FootprintScale(); math.Abs(got-1) > 1e-12 {
		t.Errorf("rotation footprint = %v, want 1", got)
	}
}

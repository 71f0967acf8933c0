package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func smallScene() *Scene {
	return &Scene{
		Name:     "unit",
		Screen:   geom.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64},
		Textures: []TexSize{{W: 32, H: 32}, {W: 64, H: 16}},
		Triangles: []geom.Triangle{
			{
				V:     [3]geom.Vec2{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 40}},
				TexID: 0,
				Tex:   geom.TexMap{DuDx: 1, DvDy: 1},
			},
			{
				V:     [3]geom.Vec2{{X: 10, Y: 10}, {X: 50, Y: 12}, {X: 30, Y: 55}},
				TexID: 1,
				Tex:   geom.TexMap{U0: 5, V0: 7, DuDx: 0.5, DuDy: 0.25, DvDx: -0.5, DvDy: 1.5},
			},
		},
	}
}

func TestValidate(t *testing.T) {
	s := smallScene()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scene rejected: %v", err)
	}
	bad := smallScene()
	bad.Triangles[0].TexID = 5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range TexID accepted")
	}
	bad2 := smallScene()
	bad2.Textures[0] = TexSize{W: 33, H: 32}
	if err := bad2.Validate(); err == nil {
		t.Error("non-pow2 texture accepted")
	}
	bad3 := smallScene()
	bad3.Screen = geom.Rect{}
	if err := bad3.Validate(); err == nil {
		t.Error("empty screen accepted")
	}
	bad4 := smallScene()
	bad4.Textures = nil
	if err := bad4.Validate(); err == nil {
		t.Error("textureless scene accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	s := smallScene()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != s.Name || got.Screen != s.Screen {
		t.Errorf("header mismatch: %q %v", got.Name, got.Screen)
	}
	if len(got.Textures) != len(s.Textures) || len(got.Triangles) != len(s.Triangles) {
		t.Fatalf("counts mismatch: %d textures, %d triangles", len(got.Textures), len(got.Triangles))
	}
	for i := range s.Textures {
		if got.Textures[i] != s.Textures[i] {
			t.Errorf("texture %d = %v, want %v", i, got.Textures[i], s.Textures[i])
		}
	}
	for i := range s.Triangles {
		a, b := got.Triangles[i], s.Triangles[i]
		if a.TexID != b.TexID {
			t.Errorf("triangle %d texid %d != %d", i, a.TexID, b.TexID)
		}
		for j := 0; j < 3; j++ {
			if math.Abs(a.V[j].X-b.V[j].X) > 1e-4 || math.Abs(a.V[j].Y-b.V[j].Y) > 1e-4 {
				t.Errorf("triangle %d vertex %d = %v, want %v", i, j, a.V[j], b.V[j])
			}
		}
		if math.Abs(a.Tex.DuDy-b.Tex.DuDy) > 1e-6 {
			t.Errorf("triangle %d texmap mismatch", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nTri uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Scene{
			Name:     "prop",
			Screen:   geom.Rect{X0: 0, Y0: 0, X1: 128, Y1: 128},
			Textures: []TexSize{{W: 16, H: 16}},
		}
		for i := 0; i < int(nTri%32)+1; i++ {
			s.Triangles = append(s.Triangles, geom.Triangle{
				V: [3]geom.Vec2{
					{X: float64(rng.Intn(128)), Y: float64(rng.Intn(128))},
					{X: float64(rng.Intn(128)), Y: float64(rng.Intn(128))},
					{X: float64(rng.Intn(128)), Y: float64(rng.Intn(128))},
				},
				TexID: 0,
				Tex:   geom.TexMap{DuDx: 1, DvDy: 1, U0: float64(rng.Intn(16))},
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Triangles) != len(s.Triangles) {
			return false
		}
		for i := range s.Triangles {
			if got.Triangles[i].V != s.Triangles[i].V { // integral coords: exact in float32
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("TTRC"),                           // truncated after magic
		append([]byte("TTRC"), 9, 0, 0, 0),       // wrong version
		append([]byte("TTRC"), 1, 0, 0, 0, 0xff), // truncated name length
	}
	for i, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestWriteRejectsInvalidScene(t *testing.T) {
	s := smallScene()
	s.Triangles[0].TexID = 99
	var buf bytes.Buffer
	if err := Write(&buf, s); err == nil {
		t.Error("Write accepted invalid scene")
	}
}

func TestBuildTexturesAndBytes(t *testing.T) {
	s := smallScene()
	m, err := s.BuildTextures()
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Fatalf("manager count = %d", m.Count())
	}
	if m.Texture(0).Width() != 32 || m.Texture(1).Width() != 64 {
		t.Error("texture table order lost")
	}
	total, err := s.TextureBytes()
	if err != nil {
		t.Fatal(err)
	}
	if total != m.TotalBytes() || total <= 0 {
		t.Errorf("TextureBytes = %d", total)
	}
}

func TestMeasureSimpleScene(t *testing.T) {
	// One axis-aligned square (two triangles) covering a 32x32 region with an
	// identity texture map over a 64x64 texture: 1024 fragments, depth
	// complexity 1024/(64*64) = 0.25.
	s := &Scene{
		Name:     "square",
		Screen:   geom.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64},
		Textures: []TexSize{{W: 64, H: 64}},
		Triangles: []geom.Triangle{
			{V: [3]geom.Vec2{{X: 0, Y: 0}, {X: 32, Y: 0}, {X: 0, Y: 32}}, TexID: 0, Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
			{V: [3]geom.Vec2{{X: 32, Y: 0}, {X: 32, Y: 32}, {X: 0, Y: 32}}, TexID: 0, Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
		},
	}
	st, err := Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.PixelsRendered != 1024 {
		t.Errorf("PixelsRendered = %d, want 1024", st.PixelsRendered)
	}
	if math.Abs(st.DepthComplexity-0.25) > 1e-9 {
		t.Errorf("DepthComplexity = %v, want 0.25", st.DepthComplexity)
	}
	if st.Triangles != 2 || st.Textures != 1 {
		t.Errorf("counts = %d triangles %d textures", st.Triangles, st.Textures)
	}
	// Identity map with trilinear touches both level 0 and level 1 texels;
	// unique texels must be positive and bounded by 8 per fragment.
	if st.UniqueTexels == 0 || st.UniqueTexels > 8*st.PixelsRendered {
		t.Errorf("UniqueTexels = %d", st.UniqueTexels)
	}
	if st.UniqueTexelFrag <= 0 || st.UniqueTexelFrag > 8 {
		t.Errorf("UniqueTexelFrag = %v", st.UniqueTexelFrag)
	}
}

func TestMeasureDepthComplexityAdds(t *testing.T) {
	// Two identical overlapping squares double the fragment count.
	base := &Scene{
		Name:     "overlap",
		Screen:   geom.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64},
		Textures: []TexSize{{W: 32, H: 32}},
	}
	quad := []geom.Triangle{
		{V: [3]geom.Vec2{{X: 0, Y: 0}, {X: 32, Y: 0}, {X: 0, Y: 32}}, Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
		{V: [3]geom.Vec2{{X: 32, Y: 0}, {X: 32, Y: 32}, {X: 0, Y: 32}}, Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
	}
	base.Triangles = append(base.Triangles, quad...)
	one, err := Measure(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Triangles = append(base.Triangles, quad...)
	two, err := Measure(base)
	if err != nil {
		t.Fatal(err)
	}
	if two.PixelsRendered != 2*one.PixelsRendered {
		t.Errorf("overlap pixels = %d, want %d", two.PixelsRendered, 2*one.PixelsRendered)
	}
	// Unique texels must NOT double: the second layer reuses the same texels.
	if two.UniqueTexels != one.UniqueTexels {
		t.Errorf("unique texels changed with overlap: %d vs %d", two.UniqueTexels, one.UniqueTexels)
	}
}

func TestMeasureTextureReuseLowersUniqueRatio(t *testing.T) {
	// A scene where every triangle maps the same small texture region must
	// have a much lower unique ratio than one where each triangle maps a
	// fresh region.
	mk := func(fresh bool) *Scene {
		s := &Scene{
			Name:     "reuse",
			Screen:   geom.Rect{X0: 0, Y0: 0, X1: 256, Y1: 256},
			Textures: []TexSize{{W: 512, H: 512}},
		}
		for i := 0; i < 8; i++ {
			u0 := 0.0
			if fresh {
				u0 = float64(i * 64)
			}
			y := float64(i * 32)
			// V0 = -y so every triangle maps texel rows [0, 32) regardless of
			// its screen position; only U0 distinguishes fresh regions.
			s.Triangles = append(s.Triangles,
				geom.Triangle{
					V:   [3]geom.Vec2{{X: 0, Y: y}, {X: 64, Y: y}, {X: 0, Y: y + 32}},
					Tex: geom.TexMap{U0: u0, V0: -y, DuDx: 1, DvDy: 1},
				})
		}
		return s
	}
	reused, err := Measure(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Measure(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if reused.UniqueTexelFrag*2 > fresh.UniqueTexelFrag {
		t.Errorf("reuse ratio %v not well below fresh ratio %v",
			reused.UniqueTexelFrag, fresh.UniqueTexelFrag)
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	b.set(129) // idempotent
	if got := b.count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, smallScene()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("TTRC"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the scene must validate.
		s, err := Read(bytes.NewReader(data))
		if err == nil {
			if vErr := s.Validate(); vErr != nil {
				t.Errorf("Read accepted invalid scene: %v", vErr)
			}
		}
	})
}

package trace

import (
	"math/bits"

	"repro/internal/raster"
	"repro/internal/texture"
)

// SceneStats are the per-scene characteristics of the paper's Table 1.
type SceneStats struct {
	Name            string
	ScreenW         int
	ScreenH         int
	PixelsRendered  uint64  // total fragments textured (all depth layers)
	DepthComplexity float64 // PixelsRendered / screen area
	Triangles       int
	Textures        int
	TextureBytes    int     // total texture memory, mip levels included
	UniqueTexels    uint64  // distinct texels touched by trilinear filtering
	UniqueTexelFrag float64 // UniqueTexels / PixelsRendered
}

// Measure rasterizes the whole scene once and returns its Table 1 row:
// fragment count, depth complexity, and the unique texel-to-fragment ratio
// (the bandwidth floor of an ideal cache with compulsory misses only).
func Measure(s *Scene) (SceneStats, error) {
	if err := s.Validate(); err != nil {
		return SceneStats{}, err
	}
	mgr, err := s.BuildTextures()
	if err != nil {
		return SceneStats{}, err
	}
	st := SceneStats{
		Name:         s.Name,
		ScreenW:      s.Screen.Width(),
		ScreenH:      s.Screen.Height(),
		Triangles:    len(s.Triangles),
		Textures:     len(s.Textures),
		TextureBytes: mgr.TotalBytes(),
	}
	seen := newBitset(mgr.TotalTexels())
	r := raster.New(s.Screen)
	var foot [8]texture.Addr
	for i := range s.Triangles {
		t := &s.Triangles[i]
		smp := mgr.Texture(t.TexID).Sampler(t.Tex.LOD())
		r.ForEachSpan(*t, s.Screen, func(sp raster.Span) {
			st.PixelsRendered += uint64(sp.Width())
			xc := float64(sp.X0) + 0.5
			yc := float64(sp.Y) + 0.5
			u := t.Tex.U0 + t.Tex.DuDx*xc + t.Tex.DuDy*yc
			v := t.Tex.V0 + t.Tex.DvDx*xc + t.Tex.DvDy*yc
			for x := sp.X0; x < sp.X1; x++ {
				smp.Footprint(u, v, &foot)
				for _, a := range foot {
					seen.set(uint(a) / texture.TexelBytes)
				}
				u += t.Tex.DuDx
				v += t.Tex.DvDx
			}
		})
	}
	st.UniqueTexels = seen.count()
	if st.PixelsRendered > 0 {
		st.UniqueTexelFrag = float64(st.UniqueTexels) / float64(st.PixelsRendered)
	}
	area := s.Screen.Area()
	if area > 0 {
		st.DepthComplexity = float64(st.PixelsRendered) / float64(area)
	}
	return st, nil
}

type bitset struct {
	words []uint64
}

func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64)}
}

func (b *bitset) set(i uint) {
	b.words[i>>6] |= 1 << (i & 63)
}

func (b *bitset) count() uint64 {
	var n uint64
	for _, w := range b.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

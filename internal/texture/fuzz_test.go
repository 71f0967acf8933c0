package texture

import (
	"math"
	"testing"
)

// refAddress is the blocked-layout address formula written out in one
// piece: wrap, split into block index and offset within the 4×4 block.
func refAddress(lv *level, u, v int32) Addr {
	blockRowW := (lv.w + BlockW - 1) / BlockW
	uu := uint32(u) & (lv.w - 1)
	vv := uint32(v) & (lv.h - 1)
	block := (vv/BlockW)*blockRowW + uu/BlockW
	within := (vv%BlockW)*BlockW + uu%BlockW
	return lv.base + block*LineBytes + within*TexelBytes
}

// refFootprint is the trilinear footprint computed texel by texel with
// refAddress: for each bracketing level, scale to that level's grid, take
// the texel-center 2×2 neighborhood and address its four texels.
func refFootprint(t *Texture, u, v, lod float64) [8]Addr {
	clamp := func(l int) int { return max(0, min(l, len(t.levels)-1)) }
	l0 := 0
	if lod >= 0 {
		l0 = clamp(int(lod))
	}
	var out [8]Addr
	for i, l := range [2]int{l0, clamp(l0 + 1)} {
		inv := 1.0 / float64(uint32(1)<<uint(l))
		u0 := int32(math.Floor(u*inv - 0.5))
		v0 := int32(math.Floor(v*inv - 0.5))
		lv := &t.levels[l]
		out[4*i+0] = refAddress(lv, u0, v0)
		out[4*i+1] = refAddress(lv, u0+1, v0)
		out[4*i+2] = refAddress(lv, u0, v0+1)
		out[4*i+3] = refAddress(lv, u0+1, v0+1)
	}
	return out
}

// refFloors returns the texel-center floors refFootprint builds a
// footprint from: u and v on each of the two bracketing levels.
func refFloors(t *Texture, u, v, lod float64) [4]int32 {
	s := t.Sampler(lod)
	return [4]int32{
		int32(math.Floor(u*s.inv0 - 0.5)), int32(math.Floor(v*s.inv0 - 0.5)),
		int32(math.Floor(u*s.inv1 - 0.5)), int32(math.Floor(v*s.inv1 - 0.5)),
	}
}

// lines returns the 64-byte line of each address of a footprint.
func lines(foot [8]Addr) [8]Addr {
	for i := range foot {
		foot[i] /= LineBytes
	}
	return foot
}

// stepFootprints is the number of steps the stepping leg of
// FuzzSamplerFootprint takes.
const stepFootprints = 64

// FuzzSamplerFootprint checks Sampler.Footprint, TrilinearFootprint,
// BilinearFootprint and AddressOf against the texel-by-texel reference on
// random power-of-two textures (1×N and N×1 included), placed after another
// texture so level bases are non-zero, at any coordinates — negative and
// wrapping — and any level of detail, including magnification (lod < 0)
// and lods past the end of the mip chain.
//
// Its stepping leg walks Sampler.Next from (u, v) by (du, dv) per step, as
// the engine walks a span: every footprint Next writes must equal the
// reference, every repeat it reports must lie in the reference's lines, in
// order, and a step whose texel floors all equal those of the last
// footprint written must be reported as a repeat.
func FuzzSamplerFootprint(f *testing.F) {
	f.Add(uint8(8), uint8(8), 20.5, 7.25, 0.3, 0.05, 0.5)
	f.Add(uint8(0), uint8(6), -3.75, 1000.0, 0.0, -0.7, -2.0)
	f.Add(uint8(5), uint8(0), 1e6, -1e6, 1.0, 0.0, 40.0)
	f.Add(uint8(3), uint8(2), 7.999, 3.5, -1.25, 0.5, 2.99)
	f.Fuzz(func(t *testing.T, logW, logH uint8, u, v, du, dv, lod float64) {
		// Keep the coordinates inside int32 at every level and step and lod
		// inside int: beyond that the float→int conversions are undefined.
		const limit = 1 << 30
		const reach = stepFootprints + 1
		if !(math.Abs(u)+reach*math.Abs(du) < limit && math.Abs(v)+reach*math.Abs(dv) < limit &&
			math.Abs(lod) < limit) {
			return
		}
		m := NewManager()
		m.MustAdd(8, 2)
		tex := m.MustAdd(1<<(logW%12), 1<<(logH%12))

		want := refFootprint(tex, u, v, lod)
		var got [8]Addr
		s := tex.Sampler(lod)
		s.Footprint(u, v, &got)
		if got != want {
			t.Fatalf("%dx%d Sampler(%v).Footprint(%v, %v) = %v, want %v",
				tex.Width(), tex.Height(), lod, u, v, got, want)
		}
		got = [8]Addr{}
		tex.TrilinearFootprint(u, v, lod, &got)
		if got != want {
			t.Fatalf("TrilinearFootprint(%v, %v, %v) = %v, want %v", u, v, lod, got, want)
		}

		l := int(math.Mod(math.Abs(lod), float64(tex.NumLevels())))
		var bil [4]Addr
		tex.BilinearFootprint(l, u, v, bil[:])
		ref := refFootprint(tex, u, v, float64(l))
		if bil != [4]Addr(ref[:4]) {
			t.Fatalf("BilinearFootprint(%d, %v, %v) = %v, want %v", l, u, v, bil, ref[:4])
		}
		iu, iv := int32(u), int32(v)
		if a, r := tex.AddressOf(l, iu, iv), refAddress(&tex.levels[l], iu, iv); a != r {
			t.Fatalf("AddressOf(%d, %d, %d) = %d, want %d", l, iu, iv, a, r)
		}

		s = tex.Sampler(lod)
		var written [4]int32
		for k := 0; k < stepFootprints; k++ {
			want, floors := refFootprint(tex, u, v, lod), refFloors(tex, u, v, lod)
			same := s.Next(u, v, &got)
			switch {
			case k == 0 && same:
				t.Fatalf("%dx%d lod %v: a new sampler's Next(%v, %v) reported a repeat",
					tex.Width(), tex.Height(), lod, u, v)
			case k > 0 && !same && floors == written:
				t.Fatalf("%dx%d lod %v step %d: Next(%v, %v) missed a repeat of texel floors %v",
					tex.Width(), tex.Height(), lod, k, u, v, floors)
			case !same && got != want:
				t.Fatalf("%dx%d lod %v step %d: Next(%v, %v) wrote %v, want %v",
					tex.Width(), tex.Height(), lod, k, u, v, got, want)
			case same && lines(got) != lines(want):
				t.Fatalf("%dx%d lod %v step %d: Next(%v, %v) reported a repeat of %v, whose lines differ from %v",
					tex.Width(), tex.Height(), lod, k, u, v, got, want)
			}
			if !same {
				written = floors
			}
			u += du
			v += dv
		}
	})
}

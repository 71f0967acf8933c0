// Package scene synthesizes the paper's seven virtual-reality benchmark
// frames. The originals are triangle traces captured from Quake, Quake2 and
// Half-Life demos plus two micro-benchmarks — none of which are available —
// so this package generates deterministic procedural scenes tuned to the
// published Table 1 characteristics: screen size, pixels rendered, depth
// complexity, triangle count, texture count, texture footprint and the
// unique texel-to-fragment ratio.
//
// The generator works in *patches*: a patch is a screen-space quad
// subdivided into a grid of triangles that share one continuous affine
// texture mapping, the way a wall, floor or character skin does in a real
// game mesh. Patches give the synthetic scenes the two properties every
// result in the paper depends on:
//
//   - spatial texture locality: adjacent pixels of a surface map adjacent
//     texels, so a 4×4-texel cache line corresponds to a small contiguous
//     screen area — the thing tile boundaries cut through;
//   - clustered depth complexity: hot spots (characters, detailed objects)
//     concentrate overdraw in small screen regions, which is what makes big
//     tiles load-imbalanced.
package scene

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/trace"
)

// Params drives the synthesizer. The benchmark constructors in
// benchmarks.go fill these from the Table 1 targets.
type Params struct {
	Name   string
	Seed   int64
	Width  int // screen width at Scale 1
	Height int // screen height at Scale 1

	// Triangles is the target triangle count; DepthComplexity is the target
	// average overdraw (fragments / screen area). Together they set the
	// average triangle area.
	Triangles       int
	DepthComplexity float64

	// Textures is the exact texture count; TexSize is the base-level size
	// (square, power of two) of an average texture. Individual textures
	// jitter one power of two around it.
	Textures int
	TexSize  int

	// TexelDensity is the linear texel-per-pixel density of surface texture
	// mappings (1 = one texel per pixel; <1 = magnified textures, the
	// pre-magnification Quake look; >1 = minified).
	TexelDensity float64

	// FreshFraction is the probability that a patch maps a previously
	// untouched texture region rather than re-tiling an already-used one.
	// Higher values raise the unique texel-to-fragment ratio.
	FreshFraction float64

	// HotSpots is the number of high-overdraw screen clusters;
	// HotSpotShare is the fraction of all fragments concentrated in them.
	// Hot-spot patches are smaller and more finely subdivided (characters).
	HotSpots     int
	HotSpotShare float64

	// PatchSide is the mean side length in pixels (at Scale 1) of a
	// background surface patch. Zero picks large patches (~a quarter of the
	// screen); game scenes with many per-surface textures use values near
	// the textures' natural screen size.
	PatchSide float64

	// Scale crops the frame for fast runs: screen dimensions scale by Scale
	// and triangle, fragment and texture-count budgets by Scale², while
	// texture sizes, patch sizes and texel densities stay fixed — so all
	// cache-local structure (line sharing at tile boundaries, LOD, texture
	// working-set density) is identical to the full frame. 0 means 1;
	// otherwise it must lie in (0, MaxScale].
	Scale float64
}

// MaxScale is the largest Scale Generate accepts.
const MaxScale = 4

func (p Params) withDefaults() Params {
	if p.Scale == 0 {
		p.Scale = 1
	}
	if p.TexelDensity == 0 {
		p.TexelDensity = 1
	}
	if p.TexSize == 0 {
		p.TexSize = 64
	}
	if p.Textures == 0 {
		p.Textures = 1
	}
	return p
}

// Validate rejects unusable parameter sets.
func (p Params) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Width <= 0 || p.Height <= 0:
		return fmt.Errorf("scene: bad screen %dx%d", p.Width, p.Height)
	case p.Triangles <= 0:
		return fmt.Errorf("scene: triangle target %d must be positive", p.Triangles)
	case p.DepthComplexity <= 0:
		return fmt.Errorf("scene: depth complexity %v must be positive", p.DepthComplexity)
	case p.TexelDensity <= 0:
		return fmt.Errorf("scene: texel density %v must be positive", p.TexelDensity)
	case p.FreshFraction < 0 || p.FreshFraction > 1:
		return fmt.Errorf("scene: fresh fraction %v outside [0,1]", p.FreshFraction)
	case p.HotSpotShare < 0 || p.HotSpotShare >= 1:
		return fmt.Errorf("scene: hot-spot share %v outside [0,1)", p.HotSpotShare)
	case p.Scale <= 0 || p.Scale > MaxScale:
		return fmt.Errorf("scene: scale %v outside (0,%d]", p.Scale, MaxScale)
	case p.TexSize < 4 || p.TexSize&(p.TexSize-1) != 0:
		return fmt.Errorf("scene: texture size %d not a power of two ≥ 4", p.TexSize)
	}
	return nil
}

// texCursor tracks fresh-region allocation and reuse anchors per texture.
type texCursor struct {
	w, h      int
	curU      float64
	curV      float64
	rowH      float64
	exhausted bool
	anchors   []geom.Vec2
}

// allocFresh reserves an untouched (tw × th)-texel region, returning its
// origin, or reports failure once the texture is fully allocated.
func (c *texCursor) allocFresh(tw, th float64) (u0, v0 float64, ok bool) {
	if c.exhausted {
		return 0, 0, false
	}
	if tw > float64(c.w) {
		tw = float64(c.w)
	}
	if th > float64(c.h) {
		th = float64(c.h)
	}
	if c.curU+tw > float64(c.w) {
		c.curU = 0
		c.curV += c.rowH
		c.rowH = 0
	}
	if c.curV+th > float64(c.h) {
		c.exhausted = true
		return 0, 0, false
	}
	u0, v0 = c.curU, c.curV
	c.curU += tw
	if th > c.rowH {
		c.rowH = th
	}
	return u0, v0, true
}

// Generate synthesizes the scene. The generator's only sources of
// variation are the Params fields — randomness comes exclusively from a
// *rand.Rand seeded with the config-recorded Seed, never from the global
// math/rand source (texlint's determinism analyzer enforces this) — so the
// same Params always produce the same scene. That purity is what makes
// scenes cache-keyable: the service's result cache keys on the config JSON,
// Seed included, and replays cached documents as if freshly simulated.
func Generate(p Params) (*trace.Scene, error) {
	return GenerateWithRand(p, rand.New(rand.NewSource(p.Seed)))
}

// GenerateWithRand is Generate with the random stream injected, for callers
// composing scenes from a shared deterministic stream (multi-frame
// synthesis, parameter searches). The caller owns reproducibility: results
// depend on the stream's state, so anything cache-keyed must go through
// Generate, where the stream is pinned to Params.Seed.
func GenerateWithRand(p Params, rng *rand.Rand) (*trace.Scene, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}

	sw := scaleInt(p.Width, p.Scale)
	sh := scaleInt(p.Height, p.Scale)
	s := &trace.Scene{
		Name:   p.Name,
		Screen: geom.Rect{X0: 0, Y0: 0, X1: sw, Y1: sh},
	}

	// Texture table: the texture count scales with the cropped frame area;
	// sizes jitter around TexSize by one power of two but do not scale.
	nTex := int(math.Round(float64(p.Textures) * p.Scale * p.Scale))
	if nTex < 1 {
		nTex = 1
	}
	cursors := make([]*texCursor, nTex)
	for i := 0; i < nTex; i++ {
		w := p.TexSize
		if nTex > 1 {
			// Jitter sizes one power of two around the average; a scene
			// with a single texture (teapot) uses the exact size.
			switch rng.Intn(4) {
			case 0:
				w /= 2
			case 1:
				w *= 2
			}
		}
		h := w
		if nTex > 1 && rng.Intn(3) == 0 && w >= 8 {
			h = w / 2 // some non-square textures
		}
		s.Textures = append(s.Textures, trace.TexSize{W: w, H: h})
		cursors[i] = &texCursor{w: w, h: h}
	}

	targetTris := int(float64(p.Triangles) * p.Scale * p.Scale)
	if targetTris < 8 {
		targetTris = 8
	}
	targetFrags := p.DepthComplexity * float64(sw) * float64(sh)
	avgTriArea := targetFrags / float64(targetTris)

	// Hot-spot centers.
	type hotspot struct{ cx, cy, r float64 }
	var spots []hotspot
	for i := 0; i < p.HotSpots; i++ {
		spots = append(spots, hotspot{
			cx: rng.Float64() * float64(sw),
			cy: rng.Float64() * float64(sh),
			r:  (0.05 + 0.07*rng.Float64()) * float64(sw),
		})
	}

	// Hot-spot patches are subdivided ~3× finer than background patches;
	// inflate the average so the *mixture* hits the triangle target.
	triMult := (1 - p.HotSpotShare) + p.HotSpotShare/hotSpotAreaScale
	g := generator{p: p, rng: rng, scene: s, cursors: cursors,
		avgTriArea: avgTriArea * triMult}

	emittedFrags := 0.0
	hotFrags := p.HotSpotShare * targetFrags
	baseFrags := targetFrags - hotFrags

	// Background patches: surface quads spread over the whole screen
	// (walls/floor/ceiling layers).
	meanSide := p.PatchSide
	if meanSide == 0 {
		meanSide = 0.33 * float64(min(sw, sh))
	}
	for emittedFrags < baseFrags && len(s.Triangles) < 4*targetTris {
		side := meanSide * (0.5 + rng.Float64())
		cx := rng.Float64() * float64(sw)
		cy := rng.Float64() * float64(sh)
		emittedFrags += g.emitPatch(cx, cy, side, 1.0)
	}
	// Hot-spot patches: small, finely subdivided (characters and props).
	for len(spots) > 0 && emittedFrags < targetFrags && len(s.Triangles) < 4*targetTris {
		sp := spots[rng.Intn(len(spots))]
		side := (0.2 + 0.6*rng.Float64()) * sp.r
		ang := rng.Float64() * 2 * math.Pi
		d := rng.Float64() * sp.r
		emittedFrags += g.emitPatch(sp.cx+math.Cos(ang)*d, sp.cy+math.Sin(ang)*d, side, hotSpotAreaScale)
	}
	if len(s.Triangles) == 0 {
		return nil, fmt.Errorf("scene %q: generator produced no triangles", p.Name)
	}
	return s, nil
}

// hotSpotAreaScale is how much finer hot-spot (character) patches are
// tessellated relative to background patches.
const hotSpotAreaScale = 0.35

type generator struct {
	p          Params
	rng        *rand.Rand
	scene      *trace.Scene
	cursors    []*texCursor
	avgTriArea float64
	freshPtr   int // round-robin start for fresh texture allocation
	usedTex    []int
}

// emitPatch adds one textured quad patch centered at (cx, cy) with the given
// side length, subdivided so its triangles have roughly
// areaScale×avgTriArea pixels each, and returns the (clipped, approximate)
// fragment area emitted.
func (g *generator) emitPatch(cx, cy, side float64, areaScale float64) float64 {
	rng := g.rng
	s := g.scene
	screen := s.Screen

	// Texture binding first: the texture's natural screen size (its texel
	// extent divided by the sampling density) bounds the patch, the way a
	// game wall section is sized to its texture. A patch may tile its
	// texture slightly (factor up to ~1.3) but not wrap it wholesale.
	d := g.p.TexelDensity * (0.8 + 0.4*rng.Float64())
	fresh := rng.Float64() < g.p.FreshFraction

	var texID int
	var u0, v0 float64
	found := false
	if fresh {
		for try := 0; try < len(g.cursors); try++ {
			id := (g.freshPtr + try) % len(g.cursors)
			cur := g.cursors[id]
			if cur.exhausted {
				continue
			}
			texID = id
			g.freshPtr = id
			found = true
			break
		}
	}
	if !found {
		if len(g.usedTex) == 0 {
			// Nothing placed yet: force the first texture.
			texID = 0
		} else {
			texID = g.usedTex[rng.Intn(len(g.usedTex))]
		}
	}
	cur := g.cursors[texID]

	// The texture's natural screen extent at this density. A patch much
	// larger than it re-tiles the texture wholesale (GL_REPEAT), the way
	// game walls stretch small magnified textures; a smaller patch maps a
	// sub-region allocated from the texture.
	natW := float64(cur.w) / d * (0.8 + 0.5*rng.Float64())
	natH := float64(cur.h) / d * (0.8 + 0.5*rng.Float64())
	tiled := side > 1.5*natW

	x0 := cx - side/2
	y0 := cy - side*(0.3+0.7*rng.Float64())/2 // patches vary in aspect
	var x1, y1 float64
	if tiled {
		x1 = x0 + side
		y1 = y0 + side*(0.4+0.8*rng.Float64())
	} else {
		x1 = x0 + math.Min(side, natW)
		y1 = y0 + math.Min(side*(0.4+0.8*rng.Float64()), natH)
	}
	// Clip the patch rectangle to the screen so off-screen area doesn't count
	// toward the fragment budget.
	cx0 := math.Max(x0, float64(screen.X0))
	cy0 := math.Max(y0, float64(screen.Y0))
	cx1 := math.Min(x1, float64(screen.X1))
	cy1 := math.Min(y1, float64(screen.Y1))
	if cx1-cx0 < 2 || cy1-cy0 < 2 {
		return 0
	}
	w := cx1 - cx0
	h := cy1 - cy0
	area := w * h

	// Subdivision: pick the grid so each cell's two triangles have about
	// areaScale × avgTriArea pixels.
	cellArea := 2 * g.avgTriArea * areaScale
	cells := math.Max(1, area/cellArea)
	nx := int(math.Max(1, math.Round(math.Sqrt(cells*w/h))))
	ny := int(math.Max(1, math.Round(cells/float64(nx))))

	texW := d * w
	texH := d * h
	switch {
	case tiled:
		// The patch sweeps the whole texture (likely several times over):
		// every texel becomes used, so no fresh area remains.
		u0, v0 = 0, 0
		cur.exhausted = true
	default:
		allocated := false
		if fresh {
			u0, v0, allocated = cur.allocFresh(texW, texH)
		}
		if !allocated {
			// Reuse: re-map a previously used region of this texture, or
			// its origin if it has never been touched.
			if len(cur.anchors) > 0 {
				a := cur.anchors[rng.Intn(len(cur.anchors))]
				u0, v0 = a.X, a.Y
			} else {
				u0, v0 = 0, 0
			}
		}
	}
	if len(cur.anchors) == 0 {
		g.usedTex = append(g.usedTex, texID)
	}
	if len(cur.anchors) < 16 {
		cur.anchors = append(cur.anchors, geom.Vec2{X: u0, Y: v0})
	}

	// The patch's affine mapping: texel (u0, v0) at patch corner (cx0, cy0).
	tm := geom.TexMap{
		U0:   u0 - d*cx0,
		V0:   v0 - d*cy0,
		DuDx: d,
		DvDy: d,
	}

	// Emit the grid with slight vertex jitter so triangle edges are not all
	// axis-aligned (jitter is per-vertex-column/row so cells still tile
	// without cracks).
	xs := make([]float64, nx+1)
	ys := make([]float64, ny+1)
	for i := 0; i <= nx; i++ {
		xs[i] = cx0 + w*float64(i)/float64(nx)
		if i > 0 && i < nx {
			xs[i] += (rng.Float64() - 0.5) * w / float64(nx) * 0.5
		}
	}
	for j := 0; j <= ny; j++ {
		ys[j] = cy0 + h*float64(j)/float64(ny)
		if j > 0 && j < ny {
			ys[j] += (rng.Float64() - 0.5) * h / float64(ny) * 0.5
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			a := geom.Vec2{X: xs[i], Y: ys[j]}
			b := geom.Vec2{X: xs[i+1], Y: ys[j]}
			c := geom.Vec2{X: xs[i+1], Y: ys[j+1]}
			e := geom.Vec2{X: xs[i], Y: ys[j+1]}
			s.Triangles = append(s.Triangles,
				geom.Triangle{V: [3]geom.Vec2{a, b, e}, TexID: int32(texID), Tex: tm},
				geom.Triangle{V: [3]geom.Vec2{b, c, e}, TexID: int32(texID), Tex: tm},
			)
		}
	}
	return area
}

func scaleInt(v int, s float64) int {
	out := int(math.Round(float64(v) * s))
	if out < 16 {
		out = 16
	}
	return out
}

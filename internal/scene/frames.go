package scene

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/trace"
)

// Translate returns a copy of the scene with every surface shifted by
// (dx, dy) pixels on screen, as a camera pan of that many pixels would do.
// Texture coordinates travel with the surfaces (the texels under a wall do
// not change when the viewpoint moves), which is exactly what makes
// inter-frame texture locality: the next frame re-reads almost the same
// texels, just through different screen tiles.
func Translate(s *trace.Scene, dx, dy float64) *trace.Scene {
	out := &trace.Scene{
		Name:      fmt.Sprintf("%s+%g,%g", s.Name, dx, dy),
		Screen:    s.Screen,
		Textures:  append([]trace.TexSize(nil), s.Textures...),
		Triangles: make([]geom.Triangle, len(s.Triangles)),
	}
	for i, t := range s.Triangles {
		for j := range t.V {
			t.V[j].X += dx
			t.V[j].Y += dy
		}
		// u(x+dx, y+dy) must equal the old u(x, y): shift the plane offsets.
		t.Tex.U0 -= float64(t.Tex.DuDx*dx) + float64(t.Tex.DuDy*dy)
		t.Tex.V0 -= float64(t.Tex.DvDx*dx) + float64(t.Tex.DvDy*dy)
		out.Triangles[i] = t
	}
	return out
}

// PanSequence builds n frames, each translated stepX/stepY pixels further
// than the last (frame 0 is the unmodified scene). It models the paper's
// §9 scenario: "the user often translates the viewpoint between frames".
func PanSequence(s *trace.Scene, n int, stepX, stepY float64) []*trace.Scene {
	frames := make([]*trace.Scene, n)
	for i := range frames {
		if i == 0 {
			frames[i] = s
			continue
		}
		frames[i] = Translate(s, stepX*float64(i), stepY*float64(i))
	}
	return frames
}

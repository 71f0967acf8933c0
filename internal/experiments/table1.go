package experiments

import (
	"context"
	"fmt"

	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunTable1 measures every synthesized benchmark and prints it against the
// paper's published characteristics.
func RunTable1(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	scenes, err := buildAllScenes(ctx, opt)
	if err != nil {
		return nil, err
	}
	area := opt.Scale * opt.Scale

	measured := make([]trace.SceneStats, len(scene.Table1))
	err = par.ForEach(ctx, opt.Parallelism, len(scene.Table1), func(i int) error {
		st, err := trace.Measure(scenes[scene.Table1[i].Name])
		if err != nil {
			return err
		}
		measured[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}

	tab := &stats.Table{
		Caption: "Scene characteristics: measured (paper target scaled to this run)",
		Header: []string{"scene", "screen", "Mpixels", "depth cmplx", "triangles",
			"textures", "texture MB", "unique texel/frag"},
	}
	for i, t := range scene.Table1 {
		st := measured[i]
		tab.AddRow(
			t.Name,
			fmt.Sprintf("%dx%d", st.ScreenW, st.ScreenH),
			fmt.Sprintf("%s (%s)", stats.F(float64(st.PixelsRendered)/1e6, 2), stats.F(t.MPixels*area, 2)),
			fmt.Sprintf("%s (%s)", stats.F(st.DepthComplexity, 1), stats.F(t.DepthComplexity, 1)),
			fmt.Sprintf("%d (%d)", st.Triangles, int(float64(t.Triangles)*area)),
			fmt.Sprintf("%d (%d)", st.Textures, maxInt(1, int(float64(t.Textures)*area+0.5))),
			fmt.Sprintf("%s (%s)", stats.F(float64(st.TextureBytes)/1e6, 1), stats.F(t.TextureMB*area, 1)),
			fmt.Sprintf("%s (%s)", stats.F(st.UniqueTexelFrag, 2), stats.F(t.UniqueTexelFrag, 2)),
		)
	}
	return &Report{
		ID:    "table1",
		Title: "Benchmark scene characteristics",
		Notes: []string{
			scaleNote(opt),
			"texture MB runs above the paper's column: our texels are the 4-byte RGBA the cache spec uses, while the paper's texture sizes imply ~16-bit storage (see internal/scene.Table1).",
		},
		Table: []*stats.Table{tab},
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

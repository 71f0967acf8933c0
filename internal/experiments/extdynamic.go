package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
)

// RunExtDynamic answers the paper's §9 question "future performance studies
// should include impact of dynamic load balancing": on a 64-processor block
// machine, how much does a dynamic tile queue gain over the static
// interleave? The dynamic scheduler assumes whole-frame buffering, so its
// numbers are the *upper bound* on what dynamic assignment could buy.
func RunExtDynamic(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	scenes, err := buildAllScenes(ctx, opt)
	if err != nil {
		return nil, err
	}
	names := scene.Names()
	const procs = 64
	const width = 16

	type row struct {
		static, dynScreen, dynLPT float64
	}
	rows := make([]row, len(names))
	err = par.ForEach(ctx, opt.Parallelism, len(names), func(i int) error {
		s := scenes[names[i]]
		cfg := core.Config{
			Procs: procs, Distribution: distrib.BlockKind, TileSize: width,
			CacheKind: core.CachePerfect,
		}
		base := cfg
		base.Procs = 1
		t1, err := simulate(ctx, s, base)
		if err != nil {
			return err
		}
		st, err := simulate(ctx, s, cfg)
		if err != nil {
			return err
		}
		dScreen, err := core.SimulateDynamicContext(ctx, s, cfg, core.DynamicScreenOrder)
		if err != nil {
			return err
		}
		dLPT, err := core.SimulateDynamicContext(ctx, s, cfg, core.DynamicLPT)
		if err != nil {
			return err
		}
		rows[i] = row{
			static:    t1.Cycles / st.Cycles,
			dynScreen: t1.Cycles / dScreen.Cycles,
			dynLPT:    t1.Cycles / dLPT.Cycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tab := &stats.Table{
		Caption: "64 processors, block-16, perfect cache: speedup with static interleave vs dynamic tile queues",
		Header:  []string{"scene", "static", "dynamic (screen order)", "dynamic (LPT)", "LPT gain"},
	}
	for i, n := range names {
		r := rows[i]
		gain := 0.0
		if r.static > 0 {
			gain = r.dynLPT/r.static - 1
		}
		tab.AddRow(n, stats.F(r.static, 1), stats.F(r.dynScreen, 1),
			stats.F(r.dynLPT, 1), stats.Pct(gain))
	}

	return &Report{
		ID:    "ext-dynamic",
		Title: "Extension (§9 future work): dynamic tile assignment vs static interleave",
		Notes: []string{
			scaleNote(opt),
			"the dynamic scheduler assumes whole-frame buffering: an upper bound a real PC accelerator cannot reach, which is why the paper's machines are static",
		},
		Table: []*stats.Table{tab},
	}, nil
}

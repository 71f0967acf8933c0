package texsim_test

import (
	"context"
	"errors"
	"testing"

	"repro/texsim"
)

func TestDynamicFacade(t *testing.T) {
	sc := texsim.Benchmark("blowout775", 0.2)
	cfg := texsim.Config{Procs: 8, Distribution: texsim.Block, TileSize: 16,
		CacheKind: texsim.CachePerfect}
	static, err := texsim.Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := texsim.SimulateDynamic(sc, cfg, texsim.DynamicLPT)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Fragments != static.Fragments {
		t.Errorf("dynamic drew %d fragments, static %d", dyn.Fragments, static.Fragments)
	}
	if _, err := texsim.SimulateDynamic(sc, texsim.Config{
		Procs: 4, Distribution: texsim.SLI, TileSize: 2, CacheKind: texsim.CachePerfect,
	}, texsim.DynamicScreenOrder); err == nil {
		t.Error("dynamic SLI accepted")
	}
}

func TestExtensionContextFacade(t *testing.T) {
	sc := texsim.Benchmark("blowout775", 0.2)
	cfg := texsim.Config{Procs: 4, TileSize: 16, CacheKind: texsim.CachePerfect}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := texsim.SimulateDynamicContext(ctx, sc, cfg, texsim.DynamicLPT); !errors.Is(err, context.Canceled) {
		t.Errorf("dynamic: err = %v, want context.Canceled", err)
	}
	if _, err := texsim.SimulateSortLastContext(ctx, sc, cfg, texsim.SortLastChunked); !errors.Is(err, context.Canceled) {
		t.Errorf("sort-last: err = %v, want context.Canceled", err)
	}
}

func TestPanAndSequenceFacade(t *testing.T) {
	sc := texsim.Benchmark("massive11255", 0.2)
	frames := texsim.PanSequence(sc, 3, 8, 0)
	if len(frames) != 3 || frames[0] != sc {
		t.Fatal("PanSequence shape wrong")
	}
	m, err := texsim.NewMachine(sc, texsim.Config{
		Procs: 4, TileSize: 16, CacheKind: texsim.CacheReal,
		L2Config: texsim.CacheConfig{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := texsim.RunSequence(m, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d frame results", len(results))
	}
	// Warm frames must fetch less from main memory than the cold one.
	mainLines := func(r *texsim.Result) (n uint64) {
		for i := range r.Nodes {
			n += r.Nodes[i].MainBus.LinesFetched
		}
		return
	}
	if mainLines(results[1]) >= mainLines(results[0]) {
		t.Errorf("warm frame main traffic %d not below cold %d",
			mainLines(results[1]), mainLines(results[0]))
	}
}

func TestGLFacade(t *testing.T) {
	c := texsim.NewGL("gl-facade", texsim.Rect{X1: 128, Y1: 128})
	tex := c.GenTexture(64, 64)
	c.BindTexture(tex)
	c.Begin(texsim.GLQuads)
	for _, p := range [][2]float64{{0, 0}, {64, 0}, {64, 64}, {0, 64}} {
		c.TexCoord2f(p[0], p[1])
		c.Vertex2f(p[0], p[1])
	}
	c.End()
	sc, err := c.Scene()
	if err != nil {
		t.Fatal(err)
	}
	res, err := texsim.Simulate(sc, texsim.Config{Procs: 2, CacheKind: texsim.CacheReal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments != 64*64 {
		t.Errorf("GL quad drew %d fragments, want 4096", res.Fragments)
	}
}

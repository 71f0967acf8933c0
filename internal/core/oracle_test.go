package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/raster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The event-driven reference for the FIFO-coupled driver. It models the
// machine the way the paper's ASF simulator does: a distributor process and
// one process per node on the sim kernel, exchanging (triangle, node) work
// items through bounded FIFOs with producer back-pressure. Production times
// the same machine with coupledClock's direct recurrence; every
// equivalence test takes its reference results from here.

// forceOracle sends every frame of m to the event-driven reference: the
// attached artifact's stored frame or, with none attached, the frame built
// in memory.
func forceOracle(m *Machine) {
	m.timeFrame = func(m *Machine, ctx context.Context, f *trace.Scene) error {
		if m.artifact != nil {
			return m.replayOracle(ctx, m.artifact.Frames[m.frame])
		}
		fa, err := buildFrameArtifact(ctx, f, m.dist, m.rast, m.mgr, m.nodeParallelism(), false)
		if err != nil {
			return err
		}
		fa.finalize(m.cfg.Procs)
		return m.replayOracle(ctx, fa)
	}
}

// forceCoupled sends every frame of m to the walk on the coupled clock,
// whatever the dispatch rule would pick.
func forceCoupled(m *Machine) {
	m.timeFrame = func(m *Machine, ctx context.Context, f *trace.Scene) error {
		return m.walkCoupled(ctx, f, m.counts(f))
	}
}

// oracleCheckEvents is how many events fire between context polls.
const oracleCheckEvents = 1 << 14

// replayOracle is the event-driven reference driver: the distributor pushes
// each triangle's work to its destinations' bounded FIFOs in submission
// order, blocking while any destination FIFO is full, and every node pops
// and times its work as the sim kernel schedules it.
func (m *Machine) replayOracle(ctx context.Context, fa *FrameArtifact) error {
	s := sim.New()
	d := &oracleDistributor{fa: fa}
	for i := 0; i < m.cfg.Procs; i++ {
		d.fifos = append(d.fifos, sim.NewFIFO[*ArtifactDest](s, m.cfg.TriangleBuffer))
	}
	s.At(0, d.step)
	for i := 0; i < m.cfg.Procs; i++ {
		n := &oracleNode{sim: s, m: m, node: i, fifo: d.fifos[i]}
		s.At(0, n.step)
	}
	for {
		ran := false
		for i := 0; i < oracleCheckEvents && s.Step(); i++ {
			ran = true
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ran {
			break
		}
	}
	if d.next != len(fa.Tris) {
		panic(fmt.Sprintf("core: oracle deadlock: distributed %d of %d triangles",
			d.next, len(fa.Tris)))
	}
	m.lastFIFOPeaks = m.lastFIFOPeaks[:0]
	for _, fifo := range d.fifos {
		m.lastFIFOPeaks = append(m.lastFIFOPeaks, fifo.Peak)
	}
	return nil
}

// oracleDistributor feeds a frame's triangles in submission order to the
// routed nodes' FIFOs, blocking while any destination FIFO is full.
// Distribution is instantaneous in simulated time (ideal geometry stage and
// network).
type oracleDistributor struct {
	fa    *FrameArtifact
	fifos []*sim.FIFO[*ArtifactDest]

	next int // next triangle to distribute
	dest int // next destination of triangle next
}

// step distributes triangles until a FIFO back-pressures, then re-arms on
// that FIFO's space event.
func (d *oracleDistributor) step(sim.Time) {
	for ; d.next < len(d.fa.Tris); d.next, d.dest = d.next+1, 0 {
		dests := d.fa.Tris[d.next].Dests
		for ; d.dest < len(dests); d.dest++ {
			dst := &dests[d.dest]
			if !d.fifos[dst.Node].TryPush(dst) {
				d.fifos[dst.Node].WaitSpace(d.step)
				return
			}
		}
	}
}

// oracleNode is one node's consumer loop on the sim kernel.
type oracleNode struct {
	sim    *sim.Simulator
	m      *Machine
	node   int
	popped int // work items popped this frame
	fifo   *sim.FIFO[*ArtifactDest]
}

func (n *oracleNode) step(now sim.Time) {
	d, ok := n.fifo.TryPop()
	if !ok {
		n.fifo.WaitItem(n.step)
		return
	}
	done := n.m.process(n.node, n.popped, d, float64(now))
	n.popped++
	n.sim.At(sim.Time(math.Ceil(done)), n.step)
}

// The hand-written references for the two extension machines: the dynamic
// tile queue and sort-last each rasterize, route and time the scene in one
// loop of their own. Production times the tile queue with dynamicFrame,
// which builds its frame through buildFrameArtifact, and streams sort-last
// through sortLastFrame;
// TestExtensionMachinesMatchOracle and FuzzFrameDrivers hold the two to
// these loops byte for byte.

// dynamicOracle is the reference for SimulateDynamic: it bins every
// triangle's spans into tiles by bounding box, then hands whole tiles to
// the engine that frees first.
func dynamicOracle(scene *trace.Scene, cfg Config, order DynamicOrder) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Distribution != distrib.BlockKind {
		return nil, fmt.Errorf("core: dynamic scheduling supports block tiles only")
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	mgr, err := scene.BuildTextures()
	if err != nil {
		return nil, err
	}

	// Bin the frame into tiles: per tile, the triangle work in submission
	// order plus a work estimate for LPT.
	w := cfg.TileSize
	tilesX := (scene.Screen.Width() + w - 1) / w
	tilesY := (scene.Screen.Height() + w - 1) / w
	nTiles := tilesX * tilesY
	type tileBin struct {
		id    int
		work  []engine.TriangleWork
		est   float64
		first int // submission index of first triangle, for stable ties
	}
	bins := make([]tileBin, nTiles)
	for i := range bins {
		bins[i] = tileBin{id: i, first: len(scene.Triangles)}
	}
	rast := raster.New(scene.Screen)
	segs := make(map[int][]engine.Segment) // per-tile scratch for one triangle
	for ti := range scene.Triangles {
		t := &scene.Triangles[ti]
		bb := t.BBox().Intersect(scene.Screen)
		if bb.Empty() {
			continue
		}
		for k := range segs {
			delete(segs, k)
		}
		rast.ForEachSpan(*t, scene.Screen, func(sp raster.Span) {
			ty := (sp.Y - scene.Screen.Y0) / w
			for x := sp.X0; x < sp.X1; {
				tx := (x - scene.Screen.X0) / w
				end := scene.Screen.X0 + (tx+1)*w
				if end > sp.X1 {
					end = sp.X1
				}
				id := ty*tilesX + tx
				segs[id] = append(segs[id], engine.Segment{Y: uint16(sp.Y), X0: uint16(x), X1: uint16(end)})
				x = end
			}
		})
		// Route by bbox: tiles the bbox touches receive the triangle even
		// with zero owned pixels (setup cost), as in the static machine.
		tx0 := (bb.X0 - scene.Screen.X0) / w
		tx1 := (bb.X1 - 1 - scene.Screen.X0) / w
		ty0 := (bb.Y0 - scene.Screen.Y0) / w
		ty1 := (bb.Y1 - 1 - scene.Screen.Y0) / w
		tex := mgr.Texture(t.TexID)
		lod := t.Tex.LOD()
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				id := ty*tilesX + tx
				var owned []engine.Segment
				if s := segs[id]; len(s) > 0 {
					owned = append(owned, s...)
				}
				b := &bins[id]
				b.work = append(b.work, engine.TriangleWork{
					Tex: tex, Map: t.Tex, LOD: lod, Segments: owned,
				})
				px := 0
				for _, sp := range owned {
					px += sp.Width()
				}
				est := float64(px)
				if est < float64(cfg.SetupCycles) {
					est = float64(cfg.SetupCycles)
				}
				b.est += est
				if ti < b.first {
					b.first = ti
				}
			}
		}
	}

	// Queue order.
	queue := make([]*tileBin, 0, nTiles)
	for i := range bins {
		if len(bins[i].work) > 0 {
			queue = append(queue, &bins[i])
		}
	}
	if order == DynamicLPT {
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].est > queue[j].est })
	}

	// Greedy dispatch: each tile goes to the processor that frees first.
	engines := newEngines(cfg)
	for _, tb := range queue {
		best := 0
		for i := 1; i < len(engines); i++ {
			if engines[i].Time() < engines[best].Time() {
				best = i
			}
		}
		e := engines[best]
		for k := range tb.work {
			e.ProcessTriangle(e.Time(), &tb.work[k])
		}
	}

	res := &Result{Config: cfg, Scene: scene.Name}
	for _, e := range engines {
		res.add(nodeResult(e, 0))
	}
	return res, nil
}

// sortLastOracle is the reference for SimulateSortLast: every drawable
// triangle goes, with all its spans, to the node its submission index
// assigns.
func sortLastOracle(scene *trace.Scene, cfg Config, assign SortLastAssignment) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	mgr, err := scene.BuildTextures()
	if err != nil {
		return nil, err
	}

	engines := newEngines(cfg)

	rast := raster.New(scene.Screen)
	var spans []engine.Segment
	for ti := range scene.Triangles {
		t := &scene.Triangles[ti]
		if t.BBox().Intersect(scene.Screen).Empty() || t.Degenerate() {
			continue
		}
		var node int
		switch assign {
		case SortLastChunked:
			node = (ti / SortLastChunkSize) % cfg.Procs
		default:
			node = ti % cfg.Procs
		}
		spans = spans[:0]
		rast.ForEachSpan(*t, scene.Screen, func(sp raster.Span) {
			spans = append(spans, engine.Segment{Y: uint16(sp.Y), X0: uint16(sp.X0), X1: uint16(sp.X1)})
		})
		w := engine.TriangleWork{
			Tex:      mgr.Texture(t.TexID),
			Map:      t.Tex,
			LOD:      t.Tex.LOD(),
			Segments: spans,
		}
		e := engines[node]
		e.ProcessTriangle(e.Time(), &w)
	}

	res := &Result{Config: cfg, Scene: scene.Name}
	for _, e := range engines {
		res.add(nodeResult(e, 0))
	}
	return res, nil
}

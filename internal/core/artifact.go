// The raster artifact: the frame path's build step — rasterization, span
// demultiplexing and, optionally, per-fragment texel address generation —
// as a first-class value. Every frame the machine simulates is first built
// into a FrameArtifact by buildFrameArtifact, the one rasterize→demux loop,
// and then replayed by one of the two frame drivers (parallel.go, core.go)
// or by the dynamic or sort-last machine's own (dynamic.go, sortlast.go).
//
// A frame built for one run only is kept in memory without footprint
// streams: each destination points at its source triangle, whose texture
// binding engine.ProcessTriangle generates the footprints from while
// timing. A
// RasterArtifact built by BuildRasterArtifact carries run-length-encoded
// footprint streams instead. Those stages depend only on (scene, resolution,
// distribution); the cache model, bus bandwidth and buffer depth they feed
// do not change a single span or address. So one artifact is built per
// (scene, resolution, distribution) and replayed into any number of machine
// configurations, which is what makes dense cache-axis sweeps cheap
// (internal/sweep's planner) and, being serializable (artifactio.go), lets
// cluster peers ship the geometry work instead of redoing it.
//
// Equivalence contract: a machine with an artifact attached produces
// byte-identical results (cycles, counters, cache statistics, FIFO peaks) to
// the same machine building its frames in memory, on both drivers: the
// footprint streams come from engine.TriangleWork.Precompute, which steps
// u/v exactly as engine.ProcessTriangle does; the machine probes them per
// work item, or ahead of time into shared miss streams (missstream.go); and
// every engine path times each fragment through the one timing loop,
// engine.Engine.ProcessMisses.
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/raster"
	"repro/internal/texture"
	"repro/internal/trace"
)

// RasterArtifact is the reusable output of rasterizing a frame sequence on
// one (scene, resolution, distribution): per frame, the routed triangles in
// submission order, each carrying its per-node owned segments and
// run-length-encoded trilinear footprint streams. Build it with
// BuildRasterArtifact, attach it with Machine.SetRasterArtifact, and ship it
// with Encode/DecodeRasterArtifact.
type RasterArtifact struct {
	// Scene is the name of the scene (frame 0) the artifact was built from.
	Scene string
	// Screen is the rendered screen rectangle — the resolution.
	Screen geom.Rect
	// Procs, Dist and TileSize identify the distribution the spans were
	// demultiplexed for; an artifact replays only on machines that match.
	Procs    int
	Dist     distrib.Kind
	TileSize int
	// Textures is the texture table of every frame (frames of a sequence
	// must share it, as Machine.RunSequenceContext requires).
	Textures []trace.TexSize
	// HasFootprints reports whether texel address streams were generated.
	// A spans-only artifact (ArtifactOpts.SpansOnly) replays only on
	// pure-scan machines: perfect cache on an infinite bus.
	HasFootprints bool
	// Frames holds one entry per frame, in sequence order.
	Frames []*FrameArtifact
}

// FrameArtifact is one frame's routed triangles.
type FrameArtifact struct {
	// Name is the source frame's scene name.
	Name string
	// Triangles is the source frame's triangle count, including off-screen
	// triangles that routed nowhere (absent from Tris).
	Triangles int
	// Tris holds the routed triangles in submission order.
	Tris []ArtifactTriangle
	// counts is each node's routed triangle count — its FIFO occupancy at
	// time zero on the coupled driver. Derived by finalize.
	counts []int
	// perNode indexes each node's work in submission order. Derived by
	// finalize; shared replays only read it.
	perNode [][]*ArtifactDest
}

// ArtifactTriangle is one routed triangle: its destinations in route order.
type ArtifactTriangle struct {
	Dests []ArtifactDest
}

// ArtifactDest is one triangle's contribution to one node.
type ArtifactDest struct {
	Node int
	Work engine.PrecomputedWork
	// src, set when the frame was built without footprint streams, is the
	// source triangle: its TexID and TexMap are the texture binding
	// engine.ProcessTriangle generates the footprints from, stored once per
	// triangle by the scene itself.
	src *geom.Triangle
}

// process times d live on engine e, arriving at arrival, and returns the
// completion time: the step every driver takes per work item of a frame
// built in memory. mgr resolves the source triangle's texture.
func (d *ArtifactDest) process(e *engine.Engine, mgr *texture.Manager, arrival float64) float64 {
	w := engine.TriangleWork{Tex: mgr.Texture(d.src.TexID), Map: d.src.Tex, LOD: d.src.Tex.LOD(), Segments: d.Work.Segments}
	return e.ProcessTriangle(arrival, &w)
}

// Counts returns each node's routed triangle count for frame fi.
func (a *RasterArtifact) Counts(fi int) []int { return a.Frames[fi].counts }

// finalize derives every frame's per-node index and counts. Called by the
// builder and the decoder; the derived state is read-only afterwards, so a
// finalized artifact is safe for concurrent replays.
func (a *RasterArtifact) finalize() {
	for _, f := range a.Frames {
		f.finalize(a.Procs)
	}
}

// finalize derives the frame's per-node counts and work index.
func (f *FrameArtifact) finalize(procs int) {
	f.counts = make([]int, procs)
	f.perNode = make([][]*ArtifactDest, procs)
	for i := range f.Tris {
		for j := range f.Tris[i].Dests {
			f.counts[f.Tris[i].Dests[j].Node]++
		}
	}
	for p := range f.perNode {
		f.perNode[p] = make([]*ArtifactDest, 0, f.counts[p])
	}
	for i := range f.Tris {
		for j := range f.Tris[i].Dests {
			d := &f.Tris[i].Dests[j]
			f.perNode[d.Node] = append(f.perNode[d.Node], d)
		}
	}
}

// ArtifactOpts tunes how BuildRasterArtifact works, never what it produces:
// the artifact contents are byte-identical at every setting (SpansOnly only
// omits the footprint streams, it does not change the spans).
type ArtifactOpts struct {
	// Workers bounds the build's parallelism (<=0 = GOMAXPROCS).
	Workers int
	// SpansOnly skips the texel address streams. The artifact then replays
	// only on pure-scan machines (perfect cache, infinite bus), which never
	// consult addresses; building it is several times cheaper.
	SpansOnly bool
}

// BuildRasterArtifact rasterizes a frame sequence once for the given
// distribution and returns the replayable artifact. The frames must satisfy
// the same constraints Machine.RunSequenceContext enforces (shared texture
// table) and additionally share one screen rectangle. tileSize 0 means the
// Config default (16).
func BuildRasterArtifact(ctx context.Context, frames []*trace.Scene, procs int, kind distrib.Kind, tileSize int, opts ArtifactOpts) (*RasterArtifact, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: artifact needs at least one frame")
	}
	if tileSize == 0 {
		tileSize = 16
	}
	first := frames[0]
	for i, f := range frames {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}
		if f.Screen != first.Screen {
			return nil, fmt.Errorf("core: frame %d screen %v differs from frame 0's %v",
				i, f.Screen, first.Screen)
		}
		if len(f.Textures) != len(first.Textures) {
			return nil, fmt.Errorf("core: frame %d has %d textures, frame 0 has %d",
				i, len(f.Textures), len(first.Textures))
		}
		for j, ts := range f.Textures {
			if ts != first.Textures[j] {
				return nil, fmt.Errorf("core: frame %d texture %d is %v, frame 0 has %v",
					i, j, ts, first.Textures[j])
			}
		}
	}
	d, err := distrib.New(kind, first.Screen, procs, tileSize)
	if err != nil {
		return nil, err
	}
	mgr, err := first.BuildTextures()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &RasterArtifact{
		Scene:         first.Name,
		Screen:        first.Screen,
		Procs:         procs,
		Dist:          kind,
		TileSize:      tileSize,
		Textures:      append([]trace.TexSize(nil), first.Textures...),
		HasFootprints: !opts.SpansOnly,
	}
	rast := raster.New(first.Screen)
	for _, f := range frames {
		fa, err := buildFrameArtifact(ctx, f, d, rast, mgr, workers, !opts.SpansOnly)
		if err != nil {
			return nil, err
		}
		a.Frames = append(a.Frames, fa)
	}
	a.finalize()
	return a, nil
}

// buildFrameArtifact rasterizes one frame across worker goroutines. Each
// chunk writes a disjoint index range of the triangle slice, so the routed
// order — and every span and address — is independent of scheduling.
// Without footprints, every destination points at its source triangle
// instead, so ProcessTriangle can generate the addresses at replay.
func buildFrameArtifact(ctx context.Context, f *trace.Scene, d distrib.Distribution, rast *raster.Rasterizer, mgr *texture.Manager, workers int, footprints bool) (*FrameArtifact, error) {
	fa := &FrameArtifact{Name: f.Name, Triangles: len(f.Triangles)}
	if len(f.Triangles) == 0 {
		return fa, nil
	}
	if workers > len(f.Triangles) {
		workers = len(f.Triangles)
	}
	nChunks := workers * 4
	if nChunks > len(f.Triangles) {
		nChunks = len(f.Triangles)
	}
	procs := d.NumProcs()
	all := make([]ArtifactTriangle, len(f.Triangles))
	err := par.ForEach(ctx, workers, nChunks, func(c int) error {
		w := newArtifactScratch(procs)
		lo, hi := c*len(f.Triangles)/nChunks, (c+1)*len(f.Triangles)/nChunks
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxPollTriangles == 0 && i > lo {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			all[i] = buildTriangle(w, d, rast, mgr, f, i, footprints)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Compact away triangles that routed nowhere (off-screen), preserving
	// submission order — the distributor skips them without any timing
	// effect, so the replay never needs to see them.
	fa.Tris = all[:0]
	for i := range all {
		if len(all[i].Dests) > 0 {
			fa.Tris = append(fa.Tris, all[i])
		}
	}
	return fa, nil
}

// artifactScratch is one build worker's reusable demux buffers.
type artifactScratch struct {
	route   []int
	spanBuf []raster.Span
	spans   [][]raster.Span // per-proc owned segments of one triangle
	// emit appends one owned segment of row y to its owner's spans; made
	// once per worker so demultiplexing a span allocates nothing.
	y    int
	emit func(proc, x0, x1 int)
}

func newArtifactScratch(procs int) *artifactScratch {
	w := &artifactScratch{
		route: make([]int, 0, procs),
		spans: make([][]raster.Span, procs),
	}
	w.emit = func(proc, x0, x1 int) {
		w.spans[proc] = append(w.spans[proc], raster.Span{Y: w.y, X0: x0, X1: x1})
	}
	return w
}

// buildTriangle rasterizes triangle i once and demultiplexes its spans per
// owning node: the machine's one rasterize→demux step. With footprints it
// generates each destination's texel address stream
// (engine.TriangleWork.Precompute); without, it points every destination at
// the source triangle.
func buildTriangle(w *artifactScratch, d distrib.Distribution, rast *raster.Rasterizer, mgr *texture.Manager, f *trace.Scene, i int, footprints bool) ArtifactTriangle {
	t := &f.Triangles[i]
	dests := d.Route(t.BBox(), w.route[:0])
	for _, p := range dests {
		w.spans[p] = w.spans[p][:0]
	}
	w.spanBuf = rast.AppendSpans(*t, f.Screen, w.spanBuf[:0])
	for _, sp := range w.spanBuf {
		w.y = sp.Y
		d.ForEachOwnedSegment(sp.Y, sp.X0, sp.X1, w.emit)
	}
	total := 0
	for _, p := range dests {
		total += len(w.spans[p])
	}
	var backing []raster.Span
	if total > 0 {
		backing = make([]raster.Span, 0, total)
	}
	out := ArtifactTriangle{Dests: make([]ArtifactDest, 0, len(dests))}
	for _, p := range dests {
		segs := w.spans[p]
		var owned []raster.Span
		if len(segs) > 0 {
			start := len(backing)
			backing = append(backing, segs...)
			owned = backing[start:len(backing):len(backing)]
		}
		dest := ArtifactDest{Node: p, Work: engine.PrecomputedWork{Segments: owned}}
		if !footprints {
			dest.src = t
		} else if len(owned) > 0 {
			tw := engine.TriangleWork{Tex: mgr.Texture(t.TexID), Map: t.Tex, LOD: t.Tex.LOD(), Segments: owned}
			dest.Work = tw.Precompute()
		}
		out.Dests = append(out.Dests, dest)
	}
	w.route = dests[:0]
	return out
}

// SetRasterArtifact attaches a prebuilt raster artifact: subsequent runs
// replay it instead of rasterizing, with byte-identical results. The
// artifact must match the machine's scene, screen and distribution; a
// spans-only artifact additionally requires a pure-scan machine (perfect
// cache, infinite bus). The caller must run the machine on the frames the
// artifact was built from — identity is sanity-checked per run by name,
// screen and triangle count. Pass nil to detach.
func (m *Machine) SetRasterArtifact(a *RasterArtifact) error {
	if a == nil {
		m.artifact, m.streams = nil, nil
		return nil
	}
	if a.Procs != m.cfg.Procs || a.Dist != m.cfg.Distribution || a.TileSize != m.cfg.TileSize {
		return fmt.Errorf("core: artifact is for %s%d/p%d, machine is %s",
			a.Dist, a.TileSize, a.Procs, m.cfg.Name())
	}
	if a.Screen != m.scene.Screen {
		return fmt.Errorf("core: artifact screen %v, machine screen %v", a.Screen, m.scene.Screen)
	}
	if len(a.Textures) != len(m.scene.Textures) {
		return fmt.Errorf("core: artifact has %d textures, machine %d",
			len(a.Textures), len(m.scene.Textures))
	}
	for i, ts := range a.Textures {
		if ts != m.scene.Textures[i] {
			return fmt.Errorf("core: artifact texture %d is %v, machine has %v",
				i, ts, m.scene.Textures[i])
		}
	}
	if !a.HasFootprints && !m.engines[0].PureScan() {
		return fmt.Errorf("core: spans-only artifact cannot replay on a %s-cache machine (footprint streams required)",
			m.cfg.CacheKind)
	}
	if a != m.artifact {
		m.artifact, m.streams = a, nil
	}
	return nil
}

// checkArtifactFrames sanity-checks that the run's frames line up with the
// attached artifact.
func (m *Machine) checkArtifactFrames(frames []*trace.Scene) error {
	a := m.artifact
	if len(frames) != len(a.Frames) {
		return fmt.Errorf("core: run has %d frames, artifact %d", len(frames), len(a.Frames))
	}
	for i, f := range frames {
		if f.Name != a.Frames[i].Name || len(f.Triangles) != a.Frames[i].Triangles {
			return fmt.Errorf("core: frame %d is %q (%d triangles), artifact was built from %q (%d)",
				i, f.Name, len(f.Triangles), a.Frames[i].Name, a.Frames[i].Triangles)
		}
		if f.Screen != a.Screen {
			return fmt.Errorf("core: frame %d screen %v, artifact screen %v", i, f.Screen, a.Screen)
		}
	}
	return nil
}

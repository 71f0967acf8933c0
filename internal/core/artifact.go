// The raster artifact: the frame path's build step — rasterization, span
// demultiplexing and, optionally, per-fragment texel address generation —
// as a first-class value, for frames timed many times. A frame timed once
// streams (stream.go) and is never built. Every other frame is built into a
// FrameArtifact by buildFrameArtifact, whose per-triangle step (demux) is
// the one rasterize→demux step the stream shares, and then walked in
// submission order on either clock (stream.go), or, for the dynamic tile
// queue, built in memory and timed tile by tile (dynamic.go).
//
// Every destination points at its source triangle, whose texture binding
// engine.ProcessTriangle generates the footprints from while timing. A
// frame built for one run only is kept in memory that way; a RasterArtifact
// built by BuildRasterArtifact may additionally carry run-length-encoded
// footprint streams. Those stages depend only on (scene, resolution,
// distribution); the cache model, bus bandwidth and buffer depth they feed
// do not change a single span or address. So one artifact is built per
// (scene, resolution, distribution) and replayed into any number of machine
// configurations, which is what makes dense cache-axis sweeps cheap
// (internal/sweep's planner). An artifact holds one frame, as the paper's
// method captures one frame and replays it against many cache
// configurations; a frame sequence (Machine.RunSequence) always streams.
// The planner's artifacts are spans-only and carry their own miss streams,
// one per cache geometry, from one probe walk (missstream.go) that
// generates each item's footprints and drops them.
//
// Equivalence contract: a machine with an artifact attached produces
// byte-identical results (cycles, counters, cache statistics, FIFO peaks) to
// the same machine streaming its frames, on both clocks: the footprint
// streams come from engine.TriangleWork.AppendFootprints, which steps u/v
// exactly as engine.ProcessTriangle does; the machine times from the
// artifact's miss stream for its geometry or, without one, probes each work
// item as it times it; and every engine path times each fragment through
// the one timing loop, engine.Engine.ProcessMisses.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"unsafe"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/raster"
	"repro/internal/texture"
	"repro/internal/trace"
)

// RasterArtifact is the reusable output of rasterizing one frame on one
// (scene, resolution, distribution): the routed triangles in submission
// order, each carrying its per-node owned segments and optionally
// run-length-encoded trilinear footprint streams, and, in the copy a probe
// walk returns, its miss streams. Build it with BuildRasterArtifact, probe
// it into miss streams with BuildMissStreams, and attach either with
// Machine.SetRasterArtifact.
type RasterArtifact struct {
	// Screen is the rendered screen rectangle — the resolution.
	Screen geom.Rect
	// Procs, Dist and TileSize identify the distribution the spans were
	// demultiplexed for; an artifact replays only on machines that match.
	Procs    int
	Dist     distrib.Kind
	TileSize int
	// Textures is the frame's texture table, which a machine must share.
	Textures []trace.TexSize
	// HasFootprints reports whether texel address streams were generated.
	// A machine replaying a spans-only artifact (ArtifactOpts.SpansOnly)
	// without miss streams times every work item live.
	HasFootprints bool
	// Frames holds the artifact's one frame.
	Frames []*FrameArtifact
	// mgr is the frame's texture memory, which the source triangles'
	// texture IDs index.
	mgr *texture.Manager
	// streams holds one miss stream per cache geometry the probe walk
	// (BuildMissStreams) was asked for; nil in an artifact never walked.
	streams map[missGeometry]missStreams
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
	// time zero on the coupled clock. Derived by finalize.
	counts []int
	// perNode indexes each node's work in submission order. Derived by
	// finalize; probe walks and the tile queue only read it.
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
	// src is the source triangle: its TexID and TexMap are the texture
	// binding the footprints are generated from, stored once per triangle
	// by the scene itself.
	src *geom.Triangle
}

// work returns d's live work item: its segments under the source
// triangle's texture binding, resolved in mgr.
func (d *ArtifactDest) work(mgr *texture.Manager) engine.TriangleWork {
	w := boundWork(mgr, d.src)
	w.Segments = d.Work.Segments
	return w
}

// boundWork returns a work item of triangle t with no segments: t's
// texture binding, its texture resolved in mgr and its level of detail.
func boundWork(mgr *texture.Manager, t *geom.Triangle) engine.TriangleWork {
	return engine.TriangleWork{Tex: mgr.Texture(t.TexID), Map: t.Tex, LOD: t.Tex.LOD()}
}

// process times d live on engine e, arriving at arrival, and returns the
// completion time: the step for a stored work item that has neither a
// footprint stream nor a miss stream. mgr resolves the source triangle's
// texture.
func (d *ArtifactDest) process(e *engine.Engine, mgr *texture.Manager, arrival float64) float64 {
	w := d.work(mgr)
	return e.ProcessTriangle(arrival, &w)
}

// Bytes returns the memory the artifact's work lists and miss streams
// take: destinations, segments, footprint streams and miss streams.
func (a *RasterArtifact) Bytes() int {
	n := a.streamBytes()
	for _, f := range a.Frames {
		for _, tri := range f.Tris {
			n += len(tri.Dests) * int(unsafe.Sizeof(ArtifactDest{}))
			for _, d := range tri.Dests {
				n += int(unsafe.Sizeof(engine.Segment{}))*len(d.Work.Segments) + 4*len(d.Work.Addrs) + 4*len(d.Work.Reps)
			}
		}
	}
	return n
}

// streamBytes returns the memory the artifact's miss streams take.
func (a *RasterArtifact) streamBytes() int {
	n := 0
	for _, s := range a.streams {
		for i := range s {
			n += 4*len(s[i].ops) + 8*len(s[i].ends)
		}
	}
	return n
}

// finalize derives the frame's per-node counts and work index. The derived
// state is read-only afterwards, so a finalized artifact is safe for
// concurrent replays.
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

// ArtifactOpts tunes BuildRasterArtifact. Workers changes how it works,
// never what it produces; SpansOnly omits the footprint streams, and leaves
// every span as it is.
type ArtifactOpts struct {
	// Workers bounds the build's parallelism (<=0 = GOMAXPROCS).
	Workers int
	// SpansOnly skips the texel address streams; building is several times
	// cheaper, and the artifact takes a fraction of the memory. Machines
	// then time from miss streams (BuildMissStreams generates the
	// footprints as it probes) or, without them, time each item live.
	SpansOnly bool
}

// BuildRasterArtifact rasterizes one frame, frames[0], for the given
// distribution and returns the replayable artifact; any other frame count
// is an error. tileSize 0 means the Config default (16).
func BuildRasterArtifact(ctx context.Context, frames []*trace.Scene, procs int, kind distrib.Kind, tileSize int, opts ArtifactOpts) (*RasterArtifact, error) {
	if len(frames) != 1 {
		return nil, fmt.Errorf("core: an artifact holds one frame, got %d", len(frames))
	}
	if tileSize == 0 {
		tileSize = 16
	}
	f := frames[0]
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: frame: %w", err)
	}
	if err := checkScreen(f.Screen); err != nil {
		return nil, err
	}
	d, err := distrib.New(kind, f.Screen, procs, tileSize)
	if err != nil {
		return nil, err
	}
	mgr, err := f.BuildTextures()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fa, err := buildFrameArtifact(ctx, f, d, raster.New(f.Screen), mgr, workers, !opts.SpansOnly)
	if err != nil {
		return nil, err
	}
	fa.finalize(procs)
	return &RasterArtifact{
		Screen:        f.Screen,
		Procs:         procs,
		Dist:          kind,
		TileSize:      tileSize,
		Textures:      append([]trace.TexSize(nil), f.Textures...),
		HasFootprints: !opts.SpansOnly,
		Frames:        []*FrameArtifact{fa},
		mgr:           mgr,
	}, nil
}

// buildFrameArtifact rasterizes one frame across worker goroutines. Each
// chunk writes a disjoint index range of the triangle slice, so the routed
// order — and every span and address — is independent of scheduling.
// Every destination points at its source triangle, so the addresses can
// be generated again at replay or in a probe walk. Each
// worker carves its work items from slabs of its own (artifactScratch), so
// the build allocates per slab block, not per triangle.
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
	// At most workers chunks run at once, so workers scratches serve them
	// all; a chunk takes one and hands it back when done.
	scratch := make(chan *artifactScratch, workers)
	for range workers {
		scratch <- newArtifactScratch(procs)
	}
	err := par.ForEach(ctx, workers, nChunks, func(c int) error {
		w := <-scratch
		defer func() { scratch <- w }()
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

// artifactScratch is one build worker's demux scratch and the slabs its
// work items are carved from.
type artifactScratch struct {
	*demuxScratch
	// addrs and reps hold one destination's footprint stream while it is
	// generated, before it is copied into the slabs.
	addrs []texture.Addr
	reps  []int32

	destSlab slab[ArtifactDest]
	segSlab  slab[engine.Segment]
	addrSlab slab[texture.Addr]
	repSlab  slab[int32]
}

func newArtifactScratch(procs int) *artifactScratch {
	return &artifactScratch{demuxScratch: newDemuxScratch(procs)}
}

// demuxScratch is one worker's reusable route and demux buffers: the
// rasterize→demux step (demux) writes a triangle's per-node owned segments
// here, for a builder to carve into a work list or for the frame walk or
// sort-last to time at once.
type demuxScratch struct {
	route   []int
	spanBuf []raster.Span
	spans   [][]engine.Segment // per-proc owned segments of one triangle
	// emit appends one owned segment of row y to its owner's spans; made
	// once per worker so demultiplexing a span allocates nothing.
	y    uint16
	emit func(proc, x0, x1 int)
}

func newDemuxScratch(procs int) *demuxScratch {
	w := &demuxScratch{
		route: make([]int, 0, procs),
		spans: make([][]engine.Segment, procs),
	}
	w.emit = func(proc, x0, x1 int) {
		// The screen fits uint16 (checkScreen), and so does every segment
		// clipped to it.
		w.spans[proc] = append(w.spans[proc], engine.Segment{Y: w.y, X0: uint16(x0), X1: uint16(x1)})
	}
	return w
}

// Slab blocks start at slabMinBytes and double up to slabMaxBytes (or the
// one item that needs more): a worker allocates a handful of blocks per
// frame, and at most one block's tail per element type is left unused.
const slabMinBytes, slabMaxBytes = 16 << 10, 256 << 10

// slab hands out consecutive pieces of large blocks, so a worker's work
// items share a few allocations. A block lives as long as any of its
// pieces, which is the lifetime of the frame they belong to.
type slab[T any] struct {
	free []T // the current block's unused tail
	next int // elements in the next block
}

// take returns n zeroed elements, capacity clipped to n so that appending to
// the piece can never write into its neighbour. take(0) is nil.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		size := int(unsafe.Sizeof(*new(T)))
		if s.next == 0 {
			s.next = slabMinBytes / size
		}
		s.free = make([]T, max(n, s.next))
		s.next = min(2*s.next, slabMaxBytes/size)
	}
	piece := s.free[:n:n]
	s.free = s.free[n:]
	return piece
}

// carve returns a copy of src in the slab (nil when src is empty).
func (s *slab[T]) carve(src []T) []T {
	piece := s.take(len(src))
	copy(piece, src)
	return piece
}

// routeTriangle returns the nodes t's bounding box routes t to, in route
// order, in w's route buffer: valid until the next call.
func (w *demuxScratch) routeTriangle(d distrib.Distribution, t *geom.Triangle) []int {
	w.route = d.Route(t.BBox(), w.route[:0])
	return w.route
}

// demux rasterizes t once on screen and demultiplexes its spans per owning
// node: the machine's one rasterize→demux step. dests is t's route
// (routeTriangle); on return w.spans[p] holds node p's owned segments for
// every p in dests, none for a node whose tiles meet only t's bounding box.
func (w *demuxScratch) demux(d distrib.Distribution, rast *raster.Rasterizer, screen geom.Rect, t *geom.Triangle, dests []int) {
	for _, p := range dests {
		w.spans[p] = w.spans[p][:0]
	}
	w.spanBuf = rast.AppendSpans(*t, screen, w.spanBuf[:0])
	for _, sp := range w.spanBuf {
		w.y = uint16(sp.Y)
		d.ForEachOwnedSegment(sp.Y, sp.X0, sp.X1, w.emit)
	}
}

// buildTriangle routes and demultiplexes triangle i (demux) and carves its
// destinations from w's slabs: every destination points at the source
// triangle and holds its owned segments and, with footprints, its texel
// address stream (engine.TriangleWork.AppendFootprints).
func buildTriangle(w *artifactScratch, d distrib.Distribution, rast *raster.Rasterizer, mgr *texture.Manager, f *trace.Scene, i int, footprints bool) ArtifactTriangle {
	t := &f.Triangles[i]
	dests := w.routeTriangle(d, t)
	w.demux(d, rast, f.Screen, t, dests)
	out := ArtifactTriangle{Dests: w.destSlab.take(len(dests))}
	for j, p := range dests {
		dest := &out.Dests[j]
		dest.Node = p
		dest.Work.Segments = w.segSlab.carve(w.spans[p])
		dest.src = t
		if footprints && len(dest.Work.Segments) > 0 {
			tw := dest.work(mgr)
			w.addrs, w.reps = tw.AppendFootprints(w.addrs[:0], w.reps[:0])
			dest.Work.Addrs = w.addrSlab.carve(w.addrs)
			dest.Work.Reps = w.repSlab.carve(w.reps)
		}
	}
	return out
}

// checkScreen rejects a screen with a coordinate outside [0, 65535]: a work
// list holds its pixel segments as engine.Segment, whose uint16 fields
// would wrap.
func checkScreen(r geom.Rect) error {
	for _, c := range [...]int{r.X0, r.Y0, r.X1, r.Y1} {
		if c < 0 || c > math.MaxUint16 {
			return fmt.Errorf("core: screen %v has a coordinate outside [0, %d], the range of a work list's pixel segments", r, math.MaxUint16)
		}
	}
	return nil
}

// checkTextures returns how texture table got differs from want, the table
// of whom: nil when they are equal. The frames of a sequence and the
// artifact of a machine must share its texture table.
func checkTextures(got, want []trace.TexSize, whom string) error {
	if len(got) != len(want) {
		return fmt.Errorf("has %d textures, %s has %d", len(got), whom, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("texture %d is %v, %s has %v", i, got[i], whom, want[i])
		}
	}
	return nil
}

// SetRasterArtifact attaches a prebuilt raster artifact: subsequent runs
// walk it instead of streaming their frame, with byte-identical results,
// timing from its miss stream for the machine's cache geometry if it holds
// one. The artifact must match the machine's scene, screen and
// distribution. The caller must run the machine on the one frame the
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
	if err := checkTextures(a.Textures, m.scene.Textures, "the machine"); err != nil {
		return fmt.Errorf("core: artifact %w", err)
	}
	m.artifact, m.streams = a, a.streams[m.cfg.missGeometry()]
	return nil
}

// checkArtifactFrames sanity-checks that the run is the one frame the
// attached artifact was built from.
func (m *Machine) checkArtifactFrames(frames []*trace.Scene) error {
	if len(frames) != 1 {
		return fmt.Errorf("core: run has %d frames, an artifact holds one", len(frames))
	}
	f, fa := frames[0], m.artifact.Frames[0]
	if f.Name != fa.Name || len(f.Triangles) != fa.Triangles {
		return fmt.Errorf("core: frame is %q (%d triangles), artifact was built from %q (%d)",
			f.Name, len(f.Triangles), fa.Name, fa.Triangles)
	}
	if f.Screen != m.artifact.Screen {
		return fmt.Errorf("core: frame screen %v, artifact screen %v", f.Screen, m.artifact.Screen)
	}
	return nil
}

// Raster-artifact serialization: a compact little-endian binary format so an
// artifact built once can be stored or shipped to another process (cluster
// peers move precomputed render work instead of redoing it). The format is
// versioned and self-describing enough to reject mismatched streams; it is
// not meant to survive format evolution silently — a version bump is a
// decode error, never a guess.
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/raster"
	"repro/internal/texture"
	"repro/internal/trace"
)

// artifactMagic identifies a serialized RasterArtifact stream.
var artifactMagic = [4]byte{'T', 'X', 'R', 'A'}

// artifactVersion is the current format version.
const artifactVersion = 1

// artifactPrealloc caps the elements preallocated from one decoded count,
// so a corrupt length prefix costs an error, not memory (append grows the
// rest); maxArtifactString bounds a decoded string's length.
const artifactPrealloc, maxArtifactString = 1 << 10, 1 << 20

// EncodeRasterArtifact writes a to w in the versioned binary format.
func EncodeRasterArtifact(w io.Writer, a *RasterArtifact) error {
	bw := bufio.NewWriter(w)
	e := &artifactEncoder{w: bw}
	e.bytes(artifactMagic[:])
	e.uvarint(artifactVersion)
	e.string(a.Scene)
	e.varint(int64(a.Screen.X0))
	e.varint(int64(a.Screen.Y0))
	e.varint(int64(a.Screen.X1))
	e.varint(int64(a.Screen.Y1))
	e.uvarint(uint64(a.Procs))
	e.uvarint(uint64(a.Dist))
	e.uvarint(uint64(a.TileSize))
	e.uvarint(uint64(len(a.Textures)))
	for _, ts := range a.Textures {
		e.uvarint(uint64(ts.W))
		e.uvarint(uint64(ts.H))
	}
	e.bool(a.HasFootprints)
	e.uvarint(uint64(len(a.Frames)))
	for _, f := range a.Frames {
		e.string(f.Name)
		e.uvarint(uint64(f.Triangles))
		e.uvarint(uint64(len(f.Tris)))
		for i := range f.Tris {
			dests := f.Tris[i].Dests
			e.uvarint(uint64(len(dests)))
			for j := range dests {
				d := &dests[j]
				e.uvarint(uint64(d.Node))
				e.uvarint(uint64(len(d.Work.Segments)))
				for _, sp := range d.Work.Segments {
					e.varint(int64(sp.Y))
					e.varint(int64(sp.X0))
					e.varint(int64(sp.X1))
				}
				e.uvarint(uint64(len(d.Work.Reps)))
				for _, r := range d.Work.Reps {
					e.uvarint(uint64(r))
				}
				e.addrs(d.Work.Addrs)
			}
		}
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// DecodeRasterArtifact reads an artifact encoded by EncodeRasterArtifact.
// The returned artifact is finalized and ready for SetRasterArtifact.
func DecodeRasterArtifact(r io.Reader) (*RasterArtifact, error) {
	d := &artifactDecoder{r: bufio.NewReader(r)}
	var magic [4]byte
	d.bytes(magic[:])
	if d.err == nil && magic != artifactMagic {
		return nil, fmt.Errorf("core: not a raster artifact stream (magic %q)", magic[:])
	}
	if v := d.uvarint(); d.err == nil && v != artifactVersion {
		return nil, fmt.Errorf("core: raster artifact version %d, this build reads %d", v, artifactVersion)
	}
	a := &RasterArtifact{}
	a.Scene = d.string()
	a.Screen = geom.Rect{
		X0: d.int(), Y0: d.int(), X1: d.int(), Y1: d.int(),
	}
	a.Procs = d.count()
	a.Dist = distrib.Kind(d.count())
	a.TileSize = d.count()
	nTex := d.count()
	a.Textures = make([]trace.TexSize, 0, min(nTex, artifactPrealloc))
	for i := 0; i < nTex && d.err == nil; i++ {
		a.Textures = append(a.Textures, trace.TexSize{W: d.count(), H: d.count()})
	}
	a.HasFootprints = d.bool()
	nFrames := d.count()
	a.Frames = make([]*FrameArtifact, 0, min(nFrames, artifactPrealloc))
	for i := 0; i < nFrames && d.err == nil; i++ {
		f := &FrameArtifact{Name: d.string(), Triangles: d.count()}
		nTris := d.count()
		f.Tris = make([]ArtifactTriangle, 0, min(nTris, artifactPrealloc))
		for j := 0; j < nTris && d.err == nil; j++ {
			nDests := d.count()
			tri := ArtifactTriangle{Dests: make([]ArtifactDest, 0, min(nDests, artifactPrealloc))}
			for k := 0; k < nDests && d.err == nil; k++ {
				dest := ArtifactDest{Node: d.count()}
				nSegs := d.count()
				if nSegs > 0 {
					dest.Work.Segments = make([]raster.Span, 0, min(nSegs, artifactPrealloc))
				}
				for s := 0; s < nSegs && d.err == nil; s++ {
					dest.Work.Segments = append(dest.Work.Segments,
						raster.Span{Y: d.int(), X0: d.int(), X1: d.int()})
				}
				nReps := d.count()
				if nReps > 0 {
					dest.Work.Reps = make([]int32, 0, min(nReps, artifactPrealloc))
				}
				for s := 0; s < nReps && d.err == nil; s++ {
					dest.Work.Reps = append(dest.Work.Reps, d.int32())
				}
				dest.Work.Addrs = d.addrs(nReps * 8)
				tri.Dests = append(tri.Dests, dest)
			}
			f.Tris = append(f.Tris, tri)
		}
		a.Frames = append(a.Frames, f)
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding raster artifact: %w", d.err)
	}
	if err := a.validateDecoded(); err != nil {
		return nil, err
	}
	a.finalize()
	return a, nil
}

// validateDecoded rejects streams whose structure is internally inconsistent,
// so a decoded artifact upholds the same invariants a built one does.
func (a *RasterArtifact) validateDecoded() error {
	if a.Procs <= 0 {
		return fmt.Errorf("core: artifact has %d processors", a.Procs)
	}
	for fi, f := range a.Frames {
		for ti := range f.Tris {
			for _, dest := range f.Tris[ti].Dests {
				if dest.Node < 0 || dest.Node >= a.Procs {
					return fmt.Errorf("core: artifact frame %d triangle %d routes to node %d of %d",
						fi, ti, dest.Node, a.Procs)
				}
				for _, sp := range dest.Work.Segments {
					if sp.Y < a.Screen.Y0 || sp.Y >= a.Screen.Y1 || sp.X0 < a.Screen.X0 || sp.X1 > a.Screen.X1 || sp.X1 < sp.X0 {
						return fmt.Errorf("core: artifact frame %d triangle %d: segment %+v is not a span of screen %v",
							fi, ti, sp, a.Screen)
					}
				}
				if len(dest.Work.Addrs) != 8*len(dest.Work.Reps) {
					return fmt.Errorf("core: artifact frame %d triangle %d: %d addresses for %d runs",
						fi, ti, len(dest.Work.Addrs), len(dest.Work.Reps))
				}
				if a.HasFootprints {
					frags := 0
					for _, r := range dest.Work.Reps {
						if r < 1 {
							return fmt.Errorf("core: artifact frame %d triangle %d: footprint run of %d fragments (a run covers at least one)",
								fi, ti, r)
						}
						frags += int(r)
					}
					if frags != dest.Work.Frags() {
						return fmt.Errorf("core: artifact frame %d triangle %d: runs cover %d fragments, segments hold %d",
							fi, ti, frags, dest.Work.Frags())
					}
				}
			}
		}
	}
	return nil
}

// artifactEncoder wraps a writer with error-capturing primitives.
type artifactEncoder struct {
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

func (e *artifactEncoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *artifactEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.bytes(e.scratch[:n])
}

func (e *artifactEncoder) varint(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.bytes(e.scratch[:n])
}

func (e *artifactEncoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.bytes([]byte{b})
}

func (e *artifactEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// addrs writes the footprint stream as fixed-width little-endian words — the
// bulk of an artifact's bytes, kept varint-free for speed.
func (e *artifactEncoder) addrs(as []texture.Addr) {
	for _, a := range as {
		binary.LittleEndian.PutUint32(e.scratch[:4], a)
		e.bytes(e.scratch[:4])
	}
}

// artifactDecoder wraps a reader with error-capturing primitives.
type artifactDecoder struct {
	r   *bufio.Reader
	err error
}

func (d *artifactDecoder) bytes(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *artifactDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

func (d *artifactDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.err = err
	return v
}

// count reads a non-negative int-sized length or count.
func (d *artifactDecoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.err = fmt.Errorf("count %d out of range", v)
		return 0
	}
	return int(v)
}

// int reads a signed int-sized value.
func (d *artifactDecoder) int() int {
	v := d.varint()
	if d.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		d.err = fmt.Errorf("value %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *artifactDecoder) int32() int32 {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.err = fmt.Errorf("run length %d out of range", v)
		return 0
	}
	return int32(v)
}

func (d *artifactDecoder) bool() bool {
	var b [1]byte
	d.bytes(b[:])
	return b[0] != 0
}

func (d *artifactDecoder) string() string {
	n := d.count()
	if d.err != nil || n == 0 {
		return ""
	}
	if n > maxArtifactString {
		d.err = fmt.Errorf("string length %d out of range", n)
		return ""
	}
	var sb strings.Builder // grows as the bytes arrive
	_, d.err = io.CopyN(&sb, d.r, int64(n))
	return sb.String()
}

func (d *artifactDecoder) addrs(n int) []texture.Addr {
	if d.err != nil || n == 0 {
		return nil
	}
	as := make([]texture.Addr, 0, min(n, artifactPrealloc))
	var b [4]byte
	for i := 0; i < n && d.err == nil; i++ {
		d.bytes(b[:])
		as = append(as, binary.LittleEndian.Uint32(b[:]))
	}
	return as
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/trace"
)

// TestArtifactRoundtrip: encode → decode → replay produces the same results
// as replaying the original artifact.
func TestArtifactRoundtrip(t *testing.T) {
	base := benchSceneFor(t, "room3", 0.1)
	frames := scene.PanSequence(base, 4, 2, 1)
	a, err := BuildRasterArtifact(context.Background(), frames, 4,
		distrib.SLIKind, 2, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeRasterArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeRasterArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	run := func(art *RasterArtifact) []*Result {
		m, err := NewMachine(frames[0], Config{Procs: 4, Distribution: distrib.SLIKind, TileSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(art); err != nil {
			t.Fatal(err)
		}
		rs, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want, got := run(a), run(b)
	for i := range want {
		wantJS, _ := json.Marshal(want[i])
		gotJS, _ := json.Marshal(got[i])
		if string(wantJS) != string(gotJS) {
			t.Errorf("frame %d: decoded artifact diverged\noriginal: %s\ndecoded:  %s",
				i, wantJS, gotJS)
		}
	}
}

// TestArtifactDecodeRejects pins the decode-time guards: bad magic, bad
// version and truncated streams all fail loudly.
func TestArtifactDecodeRejects(t *testing.T) {
	s := testScene(3, 20, 64)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 2,
		distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeRasterArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := DecodeRasterArtifact(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), good...)
	bad[4] = 99 // version varint
	if _, err := DecodeRasterArtifact(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := DecodeRasterArtifact(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestArtifactDecodeRejectsZeroRun: a footprint run must cover at least one
// fragment. A run of 0 used to decode, and the replay then drew a phantom
// fragment for it: one fragment and 8 cache accesses more than the segments
// hold.
func TestArtifactDecodeRejectsZeroRun(t *testing.T) {
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{testScene(3, 20, 64)}, 2,
		distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var d *ArtifactDest
	for i := range a.Frames[0].Tris {
		for j := range a.Frames[0].Tris[i].Dests {
			if dd := &a.Frames[0].Tris[i].Dests[j]; d == nil && len(dd.Work.Reps) > 0 {
				d = dd
			}
		}
	}
	d.Work.Reps = append([]int32{0}, d.Work.Reps...)
	d.Work.Addrs = append(append([]texture.Addr(nil), d.Work.Addrs[:8]...), d.Work.Addrs...)
	var buf bytes.Buffer
	if err := EncodeRasterArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRasterArtifact(&buf); err == nil || !strings.Contains(err.Error(), "run of 0 fragments") {
		t.Errorf("decoding a zero-length footprint run: %v, want a run-length error", err)
	}
}

// TestArtifactDecodeRejectsOffScreenSegments: every decoded segment must be
// a span of the artifact's screen, as every built one is.
func TestArtifactDecodeRejectsOffScreenSegments(t *testing.T) {
	for _, bad := range []raster.Span{{Y: -1, X0: 0, X1: 4}, {Y: 64, X0: 0, X1: 4}, {Y: 3, X0: -2, X1: 4}, {Y: 3, X0: 0, X1: 65}, {Y: 3, X0: 9, X1: 4}} {
		a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{testScene(3, 20, 64)}, 2,
			distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		d := &a.Frames[0].Tris[0].Dests[0]
		d.Work.Segments = append([]raster.Span{bad}, d.Work.Segments...)
		var buf bytes.Buffer
		if err := EncodeRasterArtifact(&buf, a); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRasterArtifact(&buf); err == nil || !strings.Contains(err.Error(), "not a span of screen") {
			t.Errorf("decoding segment %+v: %v, want a segment error", bad, err)
		}
	}
}

// TestArtifactDecodeBoundsPrealloc: a length prefix that promises more than
// the input holds costs an error, not memory. At every level of the format,
// a prefix of 2^20 followed by EOF allocates under 1 MiB. The destinations
// case is the 22-byte input in FuzzDecodeRasterArtifact's corpus
// (dests-prefix), which once allocated 88 MiB.
func TestArtifactDecodeBoundsPrealloc(t *testing.T) {
	for _, level := range []string{"scene name", "textures", "frames", "frame name", "triangles", "destinations", "segments", "runs"} {
		b := []byte("TXRA\x01")
		hostile := false
		put := func(name string, v uint64) {
			if hostile {
				return
			}
			if name == level {
				v, hostile = 1<<20, true
			}
			b = binary.AppendUvarint(b, v)
		}
		put("scene name", 0)
		for _, f := range []string{"x0", "y0", "x1", "y1", "procs", "dist", "tile size"} {
			put(f, 0)
		}
		put("textures", 0)
		put("footprints", 1)
		put("frames", 1)
		put("frame name", 0)
		put("triangle count", 1)
		put("triangles", 1)
		put("destinations", 1)
		put("node", 0)
		put("segments", 0)
		put("runs", 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRasterArtifact(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte input with a 2^20 prefix decoded", level, len(b))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes", level, len(b), n)
		}
	}
}

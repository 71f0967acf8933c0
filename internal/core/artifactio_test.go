package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/geom"
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

// segmentArtifact is a one-segment, spans-only TXRA stream on a 64×64
// screen whose segment is written as the raw ints y, x0, x1: the encoder
// cannot write an int that does not fit engine.Segment.
func segmentArtifact(y, x0, x1 int64) []byte {
	b := []byte("TXRA\x01\x00") // magic, version 1, no scene name
	for _, v := range []int64{0, 0, 64, 64} {
		b = binary.AppendVarint(b, v)
	}
	// 1 proc, block, tile 16, no textures, no footprints, 1 frame, no
	// frame name, 1 triangle, 1 routed, 1 destination on node 0, 1 segment.
	for _, v := range []uint64{1, 0, 16, 0, 0, 1, 0, 1, 1, 1, 0, 1} {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range []int64{y, x0, x1} {
		b = binary.AppendVarint(b, v)
	}
	return binary.AppendUvarint(b, 0) // no footprint runs
}

// TestArtifactDecodeRejectsOffScreenSegments: every decoded segment must be
// a span of the artifact's screen, as every built one is. A coordinate that
// does not fit a segment is rejected before it is narrowed: 65536+5 must not
// wrap to an on-screen 5 (FuzzDecodeRasterArtifact's seg-overflow seed).
func TestArtifactDecodeRejectsOffScreenSegments(t *testing.T) {
	if _, err := DecodeRasterArtifact(bytes.NewReader(segmentArtifact(3, 0, 4))); err != nil {
		t.Fatalf("decoding an on-screen segment: %v", err)
	}
	for _, c := range []struct {
		y, x0, x1 int64
		want      string
	}{
		{-1, 0, 4, "out of range"},
		{3, -2, 4, "out of range"},
		{1<<16 + 5, 0, 4, "out of range"},
		{3, 0, 1<<16 + 4, "out of range"},
		{64, 0, 4, "not a span of screen"},
		{3, 0, 65, "not a span of screen"},
		{3, 9, 4, "not a span of screen"},
	} {
		_, err := DecodeRasterArtifact(bytes.NewReader(segmentArtifact(c.y, c.x0, c.x1)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("decoding segment (%d, %d, %d): %v, want %q", c.y, c.x0, c.x1, err, c.want)
		}
	}
	seed, err := os.ReadFile("testdata/fuzz/FuzzDecodeRasterArtifact/seg-overflow")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", segmentArtifact(1<<16+5, 0, 4)); string(seed) != want {
		t.Errorf("seg-overflow seed is\n%s\nwant\n%s", seed, want)
	}
}

// TestScreenMustFitSegments: a screen with a coordinate outside
// [0, 65535] cannot be held by engine.Segment, so the machine and the
// artifact builder reject it up front.
func TestScreenMustFitSegments(t *testing.T) {
	for _, r := range []geom.Rect{
		{X0: 0, Y0: 0, X1: 1 << 16, Y1: 64},
		{X0: 0, Y0: 0, X1: 64, Y1: 70000},
		{X0: -1, Y0: 0, X1: 64, Y1: 64},
	} {
		sc := testScene(1, 10, 64)
		sc.Screen = r
		if _, err := NewMachine(sc, Config{Procs: 4}); err == nil || !strings.Contains(err.Error(), "outside [0, 65535]") {
			t.Errorf("NewMachine on screen %v: %v, want a screen range error", r, err)
		}
		_, err := BuildRasterArtifact(context.Background(), []*trace.Scene{sc}, 4, distrib.BlockKind, 16, ArtifactOpts{})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 65535]") {
			t.Errorf("BuildRasterArtifact on screen %v: %v, want a screen range error", r, err)
		}
	}
	sc := testScene(1, 10, 64)
	sc.Screen = geom.Rect{X0: 0, Y0: 0, X1: 1<<16 - 1, Y1: 64}
	if _, err := NewMachine(sc, Config{Procs: 4}); err != nil {
		t.Errorf("NewMachine on the widest screen: %v", err)
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

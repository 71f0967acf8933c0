package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// maxSweepPoints mirrors the sweep package's unexported point limit.
const maxSweepPoints = 4096

// overflowSweep asks for 8192 values on each of five axes, about 100 KB of
// JSON: 2^65 points, a product that wraps to 0 in an int.
func overflowSweep() *Request {
	sp := &sweep.Spec{Scene: "truc640"}
	for i := 0; i < 8192; i++ {
		sp.Procs = append(sp.Procs, 1)
		sp.Sizes = append(sp.Sizes, 4)
		sp.Caches = append(sp.Caches, 16)
		sp.Buses = append(sp.Buses, 1)
		sp.Buffers = append(sp.Buffers, 1)
	}
	return &Request{Type: "sweep", Sweep: sp}
}

// decodeBytes decodes data as handleSubmit decodes a request body.
func decodeBytes(data []byte) (*Request, error) {
	return decodeRequest(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(data)))
}

// FuzzSubmitRequest: submitted bytes never panic the decoder or normalize;
// an accepted request re-normalizes to the same cache key, and an accepted
// sweep has between 1 and maxSweepPoints points.
func FuzzSubmitRequest(f *testing.F) {
	overflow, err := json.Marshal(overflowSweep())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)
	f.Add([]byte(`{"type":"experiment","experiment":{"id":"table1","scale":0.2}}`))
	f.Add([]byte(`{"type":"sweep","sweep":{"scene":"truc640","scale":0.2,"procs":[1,4],"sizes":[16],"cache":"perfect"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeBytes(data)
		if err != nil || req.normalize() != nil {
			return
		}
		if req.Sweep != nil {
			if n := req.Sweep.Points(); n < 1 || n > maxSweepPoints {
				t.Fatalf("accepted sweep has %d points", n)
			}
		}
		key, err := resultcache.Key(req)
		if err != nil {
			t.Fatalf("accepted request has no key: %v", err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		again, err := decodeBytes(body)
		if err != nil {
			t.Fatalf("normalized request does not decode: %v", err)
		}
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized request rejected on resubmission: %v", err)
		}
		if key2, err := resultcache.Key(again); err != nil || key2 != key {
			t.Fatalf("resubmitted key %s (%v), want %s", key2, err, key)
		}
	})
}

package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type demoSpec struct {
	Scene string  `json:"scene"`
	Scale float64 `json:"scale"`
	Procs []int   `json:"procs"`
}

func TestKeyDeterministic(t *testing.T) {
	a := demoSpec{Scene: "truc640", Scale: 0.5, Procs: []int{1, 4}}
	b := demoSpec{Scene: "truc640", Scale: 0.5, Procs: []int{1, 4}}
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equal specs hash differently: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", ka)
	}
}

func TestKeySensitiveToEveryField(t *testing.T) {
	base := demoSpec{Scene: "truc640", Scale: 0.5, Procs: []int{1, 4}}
	kBase, _ := Key(base)
	variants := []demoSpec{
		{Scene: "quake", Scale: 0.5, Procs: []int{1, 4}},
		{Scene: "truc640", Scale: 0.25, Procs: []int{1, 4}},
		{Scene: "truc640", Scale: 0.5, Procs: []int{1, 4, 16}},
		{Scene: "truc640", Scale: 0.5, Procs: []int{4, 1}},
	}
	for i, v := range variants {
		k, err := Key(v)
		if err != nil {
			t.Fatal(err)
		}
		if k == kBase {
			t.Errorf("variant %d collides with base: %+v", i, v)
		}
	}
}

func TestGetPutAndStats(t *testing.T) {
	c, err := New(Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a") // refresh a; b is now the LRU tail
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{MaxEntries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(demoSpec{Scene: "room3"})
	if err := c1.Put(key, []byte(`{"rows":[]}`)); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := New(Config{MaxEntries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || string(got) != `{"rows":[]}` {
		t.Fatalf("disk tier miss: %q, %v", got, ok)
	}
	if c2.Len() != 1 {
		t.Fatal("disk hit not promoted to memory")
	}
	// No stray temp files left behind.
	tmps, _ := filepath.Glob(filepath.Join(dir, "put-*"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

func TestDisabledCacheNeverHits(t *testing.T) {
	c, err := New(Config{MaxEntries: 8, Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache holds %d entries", c.Len())
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 0 hits 1 miss", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%32)
				c.Put(k, []byte(k))
				if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("corrupt value %q for key %q", v, k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDiskCorruptionCountsAsMiss(t *testing.T) {
	// A corrupted on-disk entry — truncated write, bit rot, an operator's
	// stray edit — must never be served as a hit or surface as an error:
	// Get and Peek both treat it as a miss (only Get counts one) and delete
	// the file so the slot heals on the next Put. Bit rot that leaves valid
	// JSON is caught by the entry's digest, and an entry written before
	// digests reads as a miss once.
	const doc = `{"rows":[{"cycles":12}]}`
	for name, scribble := range map[string]func(old []byte) []byte{
		"truncated": func([]byte) []byte { return []byte(`{"rows":[{"cycles":12`) },
		"garbage":   func([]byte) []byte { return []byte("\x00\xffnot json at all") },
		"empty":     func([]byte) []byte { return nil },
		"flipped digit, valid JSON": func(old []byte) []byte {
			return bytes.Replace(old, []byte(`"cycles":12`), []byte(`"cycles":13`), 1)
		},
		"no digest": func([]byte) []byte { return []byte(doc) },
	} {
		for _, peek := range []bool{false, true} {
			dir := t.TempDir()
			c, err := New(Config{MaxEntries: 4, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put("k1", []byte(doc)); err != nil {
				t.Fatal(err)
			}

			// Scribble over the entry and evict it from memory by restarting.
			path := filepath.Join(dir, "k1.json")
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := scribble(old)
			if bytes.Equal(bad, old) {
				t.Fatalf("%s: the scribble left the entry as it was", name)
			}
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := New(Config{MaxEntries: 4, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			get, want := c2.Get, Stats{Misses: 1}
			if peek {
				get, want = c2.Peek, Stats{}
			}
			if val, ok := get("k1"); ok {
				t.Fatalf("%s (peek %v): corrupt entry served as hit: %q", name, peek, val)
			}
			if s := c2.Stats(); s != want {
				t.Errorf("%s (peek %v): stats after corrupt read = %+v, want %+v", name, peek, s, want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s (peek %v): corrupt entry file not deleted", name, peek)
			}

			// The slot works again after the next Put.
			if err := c2.Put("k1", []byte(`{"rows":[1]}`)); err != nil {
				t.Fatal(err)
			}
			c3, err := New(Config{MaxEntries: 4, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if val, ok := get("k1"); !ok || string(val) != `{"rows":[1]}` {
				t.Errorf("%s (peek %v): healed entry = %q, %v", name, peek, val, ok)
			}
			if val, ok := c3.Get("k1"); !ok || string(val) != `{"rows":[1]}` {
				t.Errorf("%s (peek %v): healed entry after a restart = %q, %v", name, peek, val, ok)
			}
		}
	}
}

func TestDiskUnreadableEntryCountsAsMiss(t *testing.T) {
	// An entry file that cannot be read at all behaves like a miss too.
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	// Replace the entry with a directory: ReadFile fails with a non-IsNotExist error.
	path := filepath.Join(dir, "k1.json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{MaxEntries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k1"); ok {
		t.Error("unreadable entry served as hit")
	}
}

func TestPutRemoteCountsRemoteHit(t *testing.T) {
	c, err := New(Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutRemote("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RemoteHits != 1 {
		t.Fatalf("remote hits = %d, want 1", st.RemoteHits)
	}
	// The proxied result is served locally from now on.
	got, ok := c.Get("k")
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("Get after PutRemote = %q, %v", got, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.RemoteHits != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 remote hit", st)
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("peek hit on empty cache")
	}
	c.Put("k", []byte(`{"v":1}`))
	got, ok := c.Peek("k")
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("Peek = %q, %v", got, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved the stats: %+v", st)
	}

	// Peek consults the disk tier like Get.
	c2, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Peek("k"); !ok {
		t.Fatal("Peek missed the disk tier")
	}
	if st := c2.Stats(); st != (Stats{}) {
		t.Fatalf("disk Peek moved the stats: %+v", st)
	}
}

func TestDisabledAccessor(t *testing.T) {
	on, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(Config{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Disabled() {
		t.Fatal("enabled cache reports disabled")
	}
	if !off.Disabled() {
		t.Fatal("disabled cache reports enabled")
	}
	if _, ok := off.Peek("k"); ok {
		t.Fatal("disabled cache peeked a value")
	}
	if err := off.PutRemote("k", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.Get("k"); ok {
		t.Fatal("disabled cache stored a remote value")
	}
}

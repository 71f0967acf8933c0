// Package resultcache is a content-addressed cache for simulation results:
// the service-level analogue of the paper's texture cache. Keys are a SHA-256
// of the canonical JSON encoding of the full simulation request, so two
// requests that would simulate the same machine on the same scene share one
// entry — identical configs are served without re-simulating.
//
// The cache is an in-memory LRU with an optional write-through on-disk tier,
// so a restarted service keeps its warm set (the L2 to the in-memory L1, to
// keep the paper's framing). Each disk entry carries a SHA-256 of its
// bytes, and an entry whose bytes do not match it is never served.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key derives the canonical cache key of any JSON-encodable request value.
// encoding/json writes struct fields in declaration order and sorts map
// keys, so the encoding — and therefore the key — is deterministic. Any
// field change produces a different key.
func Key(v any) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// No HTML escaping: keys must not depend on a transport-safety detail.
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return "", fmt.Errorf("resultcache: encoding key: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Config sizes the cache.
type Config struct {
	// MaxEntries bounds the in-memory tier (0 = DefaultMaxEntries).
	MaxEntries int
	// Dir, when non-empty, enables the write-through on-disk tier; one file
	// per entry, named by key, holding the entry's digest and bytes.
	// The directory is created if missing.
	Dir string
	// Disabled turns the cache into a no-op: every Get misses and Put
	// discards. Used to force re-simulation — the texsimd -no-cache flag
	// and the cache-soundness tests, which compare cached against freshly
	// simulated documents.
	Disabled bool
}

// DefaultMaxEntries is the in-memory entry bound when Config.MaxEntries is 0.
const DefaultMaxEntries = 256

// Stats are cumulative cache counters. This snapshot is the single source of
// truth for cache accounting: both the /metrics exposition and the /cluster
// status document render from it rather than keeping parallel counters.
type Stats struct {
	Hits       uint64 // Get served from memory or disk
	Misses     uint64 // Get found nothing, or only a corrupt disk entry
	RemoteHits uint64 // results fetched from an owning peer (PutRemote)
	Evictions  uint64 // in-memory LRU evictions
}

type entry struct {
	key string
	val []byte
}

// Cache is the two-tier result cache. All methods are safe for concurrent
// use.
type Cache struct {
	mu       sync.Mutex
	max      int
	dir      string
	disabled bool
	lru      *list.List // front = most recent; values are *entry
	byKey    map[string]*list.Element
	stats    Stats
}

// New builds a cache; with a Dir it creates the directory eagerly so
// misconfiguration fails at startup, not on the first Put.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.Disabled {
		return &Cache{disabled: true}, nil
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return &Cache{
		max:   cfg.MaxEntries,
		dir:   cfg.Dir,
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
	}, nil
}

// Get returns the cached bytes for key and counts a hit or a miss. A memory
// miss falls back to the disk tier and promotes the entry on success.
func (c *Cache) Get(key string) ([]byte, bool) { return c.lookup(key, true) }

// Put stores val under key in memory and, when configured, on disk. The
// slice is retained; callers must not mutate it afterwards.
func (c *Cache) Put(key string, val []byte) error {
	if c.disabled {
		return nil
	}
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	// Atomic publish: never leave a half-written entry for a future Get.
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(append([]byte(digest(val)+"\n"), val...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// PutRemote stores a result fetched from the owning peer of key — a
// federated cache hit. It counts toward Stats.RemoteHits (the local Get that
// preceded it already counted as a miss) and then stores like Put, so the
// proxied result is served locally from now on.
func (c *Cache) PutRemote(key string, val []byte) error {
	c.mu.Lock()
	c.stats.RemoteHits++
	c.mu.Unlock()
	return c.Put(key, val)
}

// Peek returns the cached bytes for key without touching the hit/miss
// counters — the lookup a peer performs on behalf of another node, which
// should not skew this node's local hit ratio. Memory entries are still
// promoted; the disk tier is consulted like Get.
func (c *Cache) Peek(key string) ([]byte, bool) { return c.lookup(key, false) }

// lookup is Get, which counts the hit or miss, and Peek, which does not.
// A disabled cache holds nothing in either tier, so it always misses.
func (c *Cache) lookup(key string, count bool) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		if count {
			c.stats.Hits++
		}
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()

	val, ok := c.readDisk(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.insertLocked(key, val)
	}
	switch {
	case count && ok:
		c.stats.Hits++
	case count:
		c.stats.Misses++
	}
	return val, ok
}

// readDisk returns key's entry from the disk tier: the one disk read of
// Get and Peek. A file holds the digest of its entry's bytes, a newline and
// the bytes, written atomically by Put, so a file whose bytes do not match
// its digest — truncated, scribbled, bit rot that leaves valid JSON, or an
// entry from before digests — is corruption, not a result. Serving it
// would poison every future hit (the caller promotes it to the memory
// tier); it reads as absent, and its file is deleted so the re-simulated
// result can be written back cleanly.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	if sum, val, found := bytes.Cut(data, []byte{'\n'}); found && string(sum) == digest(val) {
		return val, true
	}
	os.Remove(c.path(key))
	return nil, false
}

// digest is the hex SHA-256 of an entry's bytes, which its disk file holds
// ahead of them.
func digest(val []byte) string {
	sum := sha256.Sum256(val)
	return hex.EncodeToString(sum[:])
}

// insertLocked adds or refreshes the in-memory entry, evicting from the LRU
// tail past capacity. Caller holds c.mu.
func (c *Cache) insertLocked(key string, val []byte) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&entry{key: key, val: val})
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// NS is a namespaced view of a Cache: every key is rewritten to
// sha256(namespace NUL key) before reaching the underlying tiers, so
// entries of different namespaces can share one cache (and one disk
// directory) without colliding — even when their logical keys are equal.
// The rewritten key is again 64 lowercase hex, so it satisfies every
// consumer of the plain key shape (disk file naming, peer-protocol key
// validation). The sweep engine's row checkpoints live in such a view.
type NS struct {
	c  *Cache
	ns string
}

// Namespace returns a view of the cache whose keys live under ns. Views
// share the underlying tiers (and their stats); the same (ns, key) pair
// always maps to the same entry.
func (c *Cache) Namespace(ns string) *NS { return &NS{c: c, ns: ns} }

// key derives the namespaced cache key. The NUL separator prevents prefix
// ambiguity between namespace and key: ("a", "b") and ("ab", "") hash
// differently.
func (n *NS) key(key string) string {
	sum := sha256.Sum256([]byte(n.ns + "\x00" + key))
	return hex.EncodeToString(sum[:])
}

// Get reads the namespaced entry; see Cache.Get.
func (n *NS) Get(key string) ([]byte, bool) { return n.c.Get(n.key(key)) }

// Put stores the namespaced entry; see Cache.Put.
func (n *NS) Put(key string, val []byte) error { return n.c.Put(n.key(key), val) }

// Disabled reports whether the cache is a no-op (Config.Disabled). Cluster
// cache federation checks this so that -no-cache disables remote lookups
// too — a disabled cache must force re-simulation, not a peer fetch.
func (c *Cache) Disabled() bool { return c.disabled }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disabled {
		return 0
	}
	return c.lru.Len()
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path maps a key to its disk file. Keys are hex digests, so they are safe
// path components by construction. The file keeps the .json name of the
// entries it holds, though it starts with their digest (readDisk).
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

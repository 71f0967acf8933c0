// Package cluster turns a set of texsimd processes into a peer-aware
// cluster: a static peer list, job routing by rendezvous hash of the
// result-cache key, cache federation (ask the owning peer before
// simulating), and work stealing (idle nodes pull queued jobs from
// overloaded peers).
//
// The package owns the cluster-wide bookkeeping — the peer health table,
// the ownership function, the peer-protocol HTTP client, and the
// steal/proxy/forward counters (registered on the shared metrics
// registry) — while internal/service owns the job lifecycle and decides
// when to route, proxy or steal. Determinism is what makes the whole
// design safe: two nodes simulating the same config hash produce
// byte-identical documents, so a result proxied from a peer, or computed
// by a thief and handed back, is indistinguishable from a local run.
package cluster

import (
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry/logging"
)

// Config tunes the cluster. Zero values mean the documented defaults.
type Config struct {
	// Metrics is the registry the cluster counters are registered on —
	// share it with the service so /metrics exposes both (nil = fresh).
	Metrics *metrics.Registry
	// ProbeTimeout bounds one health probe or federated cache fetch
	// (0 = 2s).
	ProbeTimeout time.Duration
	// CallTimeout bounds every other peer call — forwards, status polls,
	// result fetches, completions, cache pushes (0 = 10s). Every outbound
	// hop carries a deadline so a hung peer can never pin a supervision
	// goroutine past it.
	CallTimeout time.Duration
	// HealthInterval is the steady-state probe period for healthy peers
	// (0 = 5s).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failures — probes or passive
	// reports from forwards and polls — mark a peer down (0 = 2).
	FailThreshold int
	// Logger receives peer state-transition logs (nil = discard).
	Logger *slog.Logger
}

// maxBackoff caps the down-peer reprobe backoff.
const maxBackoff = 30 * time.Second

// peer is one remote member's health record.
type peer struct {
	addr      string // normalized base URL, the rendezvous identity
	up        bool
	fails     int // consecutive failures
	lastProbe time.Time
	lastErr   string
	backoff   time.Duration
	nextProbe time.Time
	rttMS     float64
}

// Cluster is the peer table plus the peer-protocol client. Create with
// New, then SetPeers with the advertised self address and the static peer
// list; Start launches the active health checker.
type Cluster struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	// mu is a read/write lock: the peer table is read on every routing
	// decision (Alive, IsAlive, Owner lookups) and written only by probes,
	// reports and SetPeers, so readers take RLock and never block each
	// other.
	mu    sync.RWMutex
	self  string
	peers map[string]*peer

	mForwards     *metrics.CounterVec // by reason: route, spill, failover
	mForwardFails *metrics.Counter
	mProxyHits    *metrics.Counter
	mProxyMisses  *metrics.Counter
	mStealsGiven  *metrics.Counter
	mStealsTaken  *metrics.Counter
	mStale        *metrics.Counter
	mFailovers    *metrics.Counter
	mProbeFails   *metrics.Counter
	mPeersUp      *metrics.Gauge
}

// New builds a cluster with an empty peer table; SetPeers installs the
// membership.
func New(cfg Config) *Cluster {
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 5 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = logging.Discard()
	}
	c := &Cluster{
		cfg: cfg,
		// Every peer call also carries its own ProbeTimeout or CallTimeout
		// context; this is the outer bound.
		client: &http.Client{Timeout: 30 * time.Second},
		logger: logger,
		peers:  make(map[string]*peer),
	}
	r := cfg.Metrics
	c.mForwards = r.CounterVec("texsimd_cluster_forwards_total", "Jobs forwarded to a peer, by reason (route, spill, failover).", "reason")
	c.mForwardFails = r.Counter("texsimd_cluster_forward_failures_total", "Forward attempts that failed or were rejected by the peer.")
	c.mProxyHits = r.Counter("texsimd_cluster_proxy_cache_hits_total", "Jobs served from the owning peer's result cache without simulating.")
	c.mProxyMisses = r.Counter("texsimd_cluster_proxy_cache_misses_total", "Federated cache lookups the owning peer could not answer.")
	c.mStealsGiven = r.Counter("texsimd_cluster_steals_given_total", "Queued jobs handed to an idle peer.")
	c.mStealsTaken = r.Counter("texsimd_cluster_steals_taken_total", "Queued jobs pulled from an overloaded peer and run here.")
	c.mStale = r.Counter("texsimd_cluster_stale_completions_total", "Stolen-job completions discarded because the lease had moved on.")
	c.mFailovers = r.Counter("texsimd_cluster_failovers_total", "Remote jobs re-dispatched after their executing peer was lost.")
	c.mProbeFails = r.Counter("texsimd_cluster_probe_failures_total", "Health probes that failed.")
	c.mPeersUp = r.Gauge("texsimd_cluster_peers_up", "Remote peers currently considered healthy.")
	return c
}

// normalizeAddr turns "host:port" or a URL into the canonical base URL
// used as the peer's rendezvous identity. All nodes must list a given
// member under the same address for the hash to agree.
func normalizeAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// SetPeers installs the advertised self address and the remote peer list,
// replacing any previous membership. Unknown new peers start healthy —
// optimistic routing, corrected within FailThreshold failed calls.
func (c *Cluster) SetPeers(self string, peers []string) {
	self = normalizeAddr(self)
	c.mu.Lock()
	c.self = self
	seen := make(map[string]bool, len(peers))
	for _, a := range peers {
		a = normalizeAddr(a)
		if a == "" || a == self || seen[a] {
			continue
		}
		seen[a] = true
		if _, ok := c.peers[a]; !ok {
			c.peers[a] = &peer{addr: a, up: true}
		}
	}
	for a := range c.peers {
		if !seen[a] {
			delete(c.peers, a)
		}
	}
	c.mu.Unlock()
	c.refreshPeersUp()
}

// Self returns the advertised address of this node.
func (c *Cluster) Self() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.self
}

// Members returns every configured member (self included), sorted.
func (c *Cluster) Members() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.peers)+1)
	if c.self != "" {
		out = append(out, c.self)
	}
	for a := range c.peers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Alive returns the members currently routable (self plus healthy peers),
// sorted. Self is always alive from its own point of view.
func (c *Cluster) Alive() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.peers)+1)
	if c.self != "" {
		out = append(out, c.self)
	}
	for a, p := range c.peers {
		if p.up {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// AlivePeers returns the healthy remote peers (self excluded), sorted.
func (c *Cluster) AlivePeers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.peers))
	for a, p := range c.peers {
		if p.up {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// IsAlive reports whether addr is currently considered healthy. Self is
// always alive.
func (c *Cluster) IsAlive(addr string) bool {
	addr = normalizeAddr(addr)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if addr == c.self {
		return true
	}
	p, ok := c.peers[addr]
	return ok && p.up
}

// PeerStatus is one remote member's health, as /cluster reports it.
type PeerStatus struct {
	Addr                string  `json:"addr"`
	Up                  bool    `json:"up"`
	ConsecutiveFailures int     `json:"consecutive_failures,omitempty"`
	LastProbe           string  `json:"last_probe,omitempty"`
	LastError           string  `json:"last_error,omitempty"`
	RTTMS               float64 `json:"rtt_ms,omitempty"`
}

// Peers returns a snapshot of every remote member's health, sorted by
// address.
func (c *Cluster) Peers() []PeerStatus {
	c.mu.RLock()
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		st := PeerStatus{
			Addr:                p.addr,
			Up:                  p.up,
			ConsecutiveFailures: p.fails,
			LastError:           p.lastErr,
			RTTMS:               p.rttMS,
		}
		if !p.lastProbe.IsZero() {
			st.LastProbe = p.lastProbe.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, st)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats is the cluster counter snapshot — the same values the metrics
// registry exports, read back so /cluster and /metrics cannot disagree.
type Stats struct {
	ForwardsRoute    int64 `json:"forwards_route"`
	ForwardsSpill    int64 `json:"forwards_spill"`
	ForwardsFailover int64 `json:"forwards_failover"`
	ForwardFailures  int64 `json:"forward_failures"`
	ProxyCacheHits   int64 `json:"proxy_cache_hits"`
	ProxyCacheMisses int64 `json:"proxy_cache_misses"`
	StealsGiven      int64 `json:"steals_given"`
	StealsTaken      int64 `json:"steals_taken"`
	StaleCompletions int64 `json:"stale_completions"`
	Failovers        int64 `json:"failovers"`
	ProbeFailures    int64 `json:"probe_failures"`
	PeersUp          int   `json:"peers_up"`
}

// Stats returns the counter snapshot.
func (c *Cluster) Stats() Stats {
	return Stats{
		ForwardsRoute:    c.mForwards.With("route").Value(),
		ForwardsSpill:    c.mForwards.With("spill").Value(),
		ForwardsFailover: c.mForwards.With("failover").Value(),
		ForwardFailures:  c.mForwardFails.Value(),
		ProxyCacheHits:   c.mProxyHits.Value(),
		ProxyCacheMisses: c.mProxyMisses.Value(),
		StealsGiven:      c.mStealsGiven.Value(),
		StealsTaken:      c.mStealsTaken.Value(),
		StaleCompletions: c.mStale.Value(),
		Failovers:        c.mFailovers.Value(),
		ProbeFailures:    c.mProbeFails.Value(),
		PeersUp:          int(c.mPeersUp.Value()),
	}
}

// Counter hooks for the service's routing decisions. Keeping the storage
// in the metrics registry means there is exactly one copy of each number.

// CountForward records a job handed to a peer for the given reason
// ("route", "spill" or "failover").
func (c *Cluster) CountForward(reason string) { c.mForwards.With(reason).Inc() }

// CountForwardFailure records a forward attempt a peer refused or failed.
func (c *Cluster) CountForwardFailure() { c.mForwardFails.Inc() }

// CountProxyHit records a job served from the owning peer's cache.
func (c *Cluster) CountProxyHit() { c.mProxyHits.Inc() }

// CountProxyMiss records a federated lookup the owner could not answer.
func (c *Cluster) CountProxyMiss() { c.mProxyMisses.Inc() }

// CountStealGiven records a queued job handed to an idle peer.
func (c *Cluster) CountStealGiven() { c.mStealsGiven.Inc() }

// CountStealTaken records a queued job pulled from a peer and run here.
func (c *Cluster) CountStealTaken() { c.mStealsTaken.Inc() }

// CountStaleCompletion records a completion discarded as out of lease.
func (c *Cluster) CountStaleCompletion() { c.mStale.Inc() }

// CountFailover records a remote job re-dispatched after peer loss.
func (c *Cluster) CountFailover() { c.mFailovers.Inc() }

// refreshPeersUp recomputes the peers-up gauge.
func (c *Cluster) refreshPeersUp() {
	c.mu.RLock()
	n := 0
	for _, p := range c.peers {
		if p.up {
			n++
		}
	}
	c.mu.RUnlock()
	c.mPeersUp.Set(float64(n))
}

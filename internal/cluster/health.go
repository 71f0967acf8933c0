package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Health tracking is two-channel. Active: Start's loop probes /healthz on
// every due peer (healthy peers every HealthInterval, down peers on an
// exponential backoff capped at maxBackoff). Passive: the service reports
// the outcome of real peer traffic — forwards, polls, cache fetches —
// through ReportFailure/ReportSuccess, so a dead peer is routed around
// after FailThreshold failed calls without waiting for the next probe.

// Start launches the health-check loop; it stops when ctx is cancelled.
// Call at most once.
func (c *Cluster) Start(ctx context.Context) {
	go c.healthLoop(ctx)
}

// healthLoop wakes at a quarter of the probe interval and probes whatever
// is due. Probes run outside the peer-table lock.
func (c *Cluster) healthLoop(ctx context.Context) {
	quantum := c.cfg.HealthInterval / 4
	if quantum < 10*time.Millisecond {
		quantum = 10 * time.Millisecond
	}
	t := time.NewTicker(quantum)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.ProbeNow(ctx)
		}
	}
}

// ProbeNow synchronously probes every peer whose next probe is due and
// applies the results. Exposed for tests and for operators who want
// /cluster to reflect a fresh view.
func (c *Cluster) ProbeNow(ctx context.Context) {
	now := time.Now()
	c.mu.RLock()
	var due []string
	for a, p := range c.peers {
		if !p.nextProbe.After(now) {
			due = append(due, a)
		}
	}
	c.mu.RUnlock()

	var wg sync.WaitGroup
	for _, addr := range due {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			start := time.Now()
			err := c.probe(ctx, addr)
			rtt := time.Since(start)
			if err != nil {
				c.mProbeFails.Inc()
				c.reportProbe(addr, rtt, err)
				return
			}
			c.reportProbe(addr, rtt, nil)
		}(addr)
	}
	wg.Wait()
}

// probe checks one peer's liveness: a 200 from /healthz. A draining peer
// answers 503 and is deliberately treated as down — it will not accept
// forwards, so routing should skip it.
func (c *Cluster) probe(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// reportProbe records one probe outcome, stamping probe time and RTT.
func (c *Cluster) reportProbe(addr string, rtt time.Duration, err error) {
	now := time.Now()
	c.mu.Lock()
	p, ok := c.peers[addr]
	if ok {
		p.lastProbe = now
		p.rttMS = float64(rtt) / float64(time.Millisecond)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	if err != nil {
		c.ReportFailure(addr, err)
	} else {
		c.ReportSuccess(addr)
	}
}

// ReportFailure records a failed interaction with addr (probe, forward,
// poll or cache fetch). After FailThreshold consecutive failures the peer
// is marked down and reprobed on an exponential backoff.
func (c *Cluster) ReportFailure(addr string, err error) {
	addr = normalizeAddr(addr)
	now := time.Now()
	c.mu.Lock()
	p, ok := c.peers[addr]
	if !ok {
		c.mu.Unlock()
		return
	}
	p.fails++
	if err != nil {
		p.lastErr = err.Error()
	}
	wentDown := false
	lastErr := p.lastErr
	if p.fails >= c.cfg.FailThreshold && p.up {
		p.up = false
		wentDown = true
	}
	if !p.up {
		p.backoff *= 2
		if p.backoff < c.cfg.HealthInterval {
			p.backoff = c.cfg.HealthInterval
		}
		if p.backoff > maxBackoff {
			p.backoff = maxBackoff
		}
		p.nextProbe = now.Add(p.backoff)
	}
	c.mu.Unlock()
	if wentDown {
		c.logger.Warn("peer down", "peer", addr, "error", lastErr)
		c.refreshPeersUp()
	}
}

// ReportSuccess records a successful interaction with addr, reviving a
// down peer and resetting its failure streak and backoff.
func (c *Cluster) ReportSuccess(addr string) {
	addr = normalizeAddr(addr)
	now := time.Now()
	c.mu.Lock()
	p, ok := c.peers[addr]
	if !ok {
		c.mu.Unlock()
		return
	}
	cameUp := !p.up
	p.up = true
	p.fails = 0
	p.lastErr = ""
	p.backoff = 0
	p.nextProbe = now.Add(c.cfg.HealthInterval)
	c.mu.Unlock()
	if cameUp {
		c.logger.Info("peer up", "peer", addr)
		c.refreshPeersUp()
	}
}

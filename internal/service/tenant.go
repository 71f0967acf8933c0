package service

import (
	"math"
	"sync"
	"time"
)

// DefaultTenant is the tenant jobs without an explicit tenant belong to.
const DefaultTenant = "default"

// tenantOrDefault normalizes an empty tenant to DefaultTenant, so metrics
// labels, quota buckets and fairness FIFOs always have a concrete name.
func tenantOrDefault(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// interactiveMaxPoints is the largest sweep (in rows) still scheduled on the
// interactive band. Bigger sweeps are bulk: they never delay interactive
// jobs, which dequeue with strict priority.
const interactiveMaxPoints = 4

// classify assigns a request to a scheduling band: sweeps up to
// interactiveMaxPoints rows — and every experiment — count as interactive;
// larger sweeps are bulk.
func classify(req *Request) jobClass {
	if req.Type == "sweep" && req.Sweep.Points() > interactiveMaxPoints {
		return classBulk
	}
	return classInteractive
}

// tenantQuotas is a per-tenant token bucket: every tenant refills at rate
// jobs/second up to burst tokens, and each admitted submission spends one.
// Buckets are created on first use and refilled lazily on the next allow.
type tenantQuotas struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newTenantQuotas(rate float64, burst int) *tenantQuotas {
	if burst <= 0 {
		burst = 1
	}
	return &tenantQuotas{rate: rate, burst: float64(burst),
		buckets: make(map[string]*tokenBucket)}
}

// allow spends one token of tenant's bucket if available. On refusal it
// returns the whole seconds until a token accrues — the Retry-After value.
func (q *tenantQuotas) allow(tenant string, now time.Time) (ok bool, retryAfter int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens = math.Min(q.burst, b.tokens+el*q.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / q.rate
	retry := int(math.Ceil(wait))
	if retry < 1 {
		retry = 1
	}
	return false, retry
}

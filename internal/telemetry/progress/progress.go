// Package progress is the live job-progress plane: a broker of per-job
// event streams fed by the sweep engine and consumed by the texsimd SSE
// endpoint (GET /api/v1/jobs/{id}/events) and texsweep's -progress printer
// — one event source, any number of sinks.
//
// Design: the broker owns an append-only event log per job. Sequence
// numbers are dense (0, 1, 2, ...), so a consumer that reconnects with the
// last sequence it saw replays the gap losslessly — the SSE Last-Event-ID
// contract. Subscriptions are cursors over the log, not goroutines or
// channels: Next blocks on a broadcast signal until the log grows, the
// stream closes, or the caller's context dies. The broker therefore spawns
// nothing and leaks nothing; every blocked consumer is anchored on its own
// ctx.Done.
//
// Memory: a job's log holds one Event per sweep row plus one terminal
// event, and the stream map parallels the service's job table (which
// likewise retains every job for status queries). Bounding one means
// bounding the other; neither is bounded today.
package progress

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// Event is one progress notification. Row completions carry the simulation
// columns; terminal events (Terminal() true) carry only the job outcome.
type Event struct {
	// Seq is the event's dense per-job sequence number, assigned by the
	// broker at publish time — the SSE event ID.
	Seq int64 `json:"seq"`
	// Type is "row" for a row completion, or a terminal outcome: "done",
	// "failed", "canceled" or "shutdown" (the broker was shut down under
	// the stream).
	Type string `json:"type"`
	// Row is the completed row's index in the sweep's deterministic
	// (procs-major) order; -1 on terminal events.
	Row int `json:"row"`
	// Total is the number of rows in the job (0 when unknown, e.g. on
	// terminal events published outside a sweep).
	Total int `json:"total,omitempty"`
	// ConfigHash identifies the row's configuration: sha256 of the sweep
	// spec narrowed to this row's point (sweep.Spec.RowHash).
	ConfigHash string `json:"config_hash,omitempty"`
	Procs      int    `json:"procs,omitempty"`
	Size       int    `json:"size,omitempty"`
	// Cycles is the row's simulated machine completion time.
	Cycles float64 `json:"cycles,omitempty"`
	// Frags is the row's total fragments drawn.
	Frags uint64 `json:"frags,omitempty"`
	// CacheHit marks a row that was not simulated for this event: replayed
	// from the result cache or from a result computed on another node.
	CacheHit bool `json:"cache_hit,omitempty"`
	// WallSeconds is the row's wall-clock simulation time on this node
	// (0 for replayed rows).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Error carries the failure message on "failed" terminal events.
	Error string `json:"error,omitempty"`
	// Time is the publish timestamp (RFC3339Nano, UTC).
	Time string `json:"time,omitempty"`
}

// Terminal reports whether the event ends its stream.
func (e Event) Terminal() bool { return e.Type != "row" }

// stream is one job's append-only event log plus its broadcast signal.
type stream struct {
	mu     sync.Mutex
	events []Event
	closed bool
	notify chan struct{} // closed and replaced on every append
}

// Broker fans per-job progress events out to any number of subscribers.
// The zero value is not usable; create with NewBroker.
type Broker struct {
	mu      sync.Mutex
	streams map[string]*stream
	total   atomic.Int64
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{streams: make(map[string]*stream)}
}

// stream returns (creating if needed) the stream for jobID. Creation is
// lazy on both publish and subscribe, so subscribing before the first
// event is well-defined.
func (b *Broker) stream(jobID string) *stream {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.streams[jobID]
	if !ok {
		st = &stream{notify: make(chan struct{})}
		b.streams[jobID] = st
	}
	return st
}

// Publish appends one event to the job's log, stamping its sequence number
// and timestamp. Events published after the stream closed are dropped —
// the terminal event is by definition the last one.
func (b *Broker) Publish(jobID string, ev Event) {
	st := b.stream(jobID)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	ev.Seq = int64(len(st.events))
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	st.events = append(st.events, ev)
	close(st.notify)
	st.notify = make(chan struct{})
	st.mu.Unlock()
	b.total.Add(1)
}

// End closes the job's stream with a terminal event of the given type
// ("done", "failed", "canceled" or "shutdown"). Idempotent: only the first
// End lands; later calls (and later Publishes) are dropped.
func (b *Broker) End(jobID, typ, errMsg string) {
	st := b.stream(jobID)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	ev := Event{
		Seq:   int64(len(st.events)),
		Type:  typ,
		Row:   -1,
		Error: errMsg,
		Time:  time.Now().UTC().Format(time.RFC3339Nano),
	}
	st.events = append(st.events, ev)
	st.closed = true
	close(st.notify)
	st.notify = make(chan struct{})
	st.mu.Unlock()
	b.total.Add(1)
}

// Shutdown closes every still-open stream with a "shutdown" terminal
// event, releasing all blocked subscribers. Streams already ended are
// untouched. Safe to call more than once.
func (b *Broker) Shutdown() {
	b.mu.Lock()
	open := make([]string, 0, len(b.streams))
	for id, st := range b.streams {
		st.mu.Lock()
		closed := st.closed
		st.mu.Unlock()
		if !closed {
			open = append(open, id)
		}
	}
	b.mu.Unlock()
	for _, id := range open {
		b.End(id, "shutdown", "server shutting down")
	}
}

// TotalEvents returns the number of events published across all jobs —
// the source the texsimd_progress_events_total counter mirrors.
func (b *Broker) TotalEvents() int64 { return b.total.Load() }

// Events returns a snapshot of a job's log from sequence `from` on.
func (b *Broker) Events(jobID string, from int64) []Event {
	st := b.stream(jobID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= int64(len(st.events)) {
		return nil
	}
	out := make([]Event, int64(len(st.events))-from)
	copy(out, st.events[from:])
	return out
}

// Subscription is a cursor over one job's event log. It holds no broker
// resources: dropping it (or cancelling the context passed to Next) is the
// whole cleanup.
type Subscription struct {
	st     *stream
	cursor int64
}

// Subscribe returns a subscription replaying the job's log from sequence
// `from` (0 = the beginning) and then following it live.
func (b *Broker) Subscribe(jobID string, from int64) *Subscription {
	if from < 0 {
		from = 0
	}
	return &Subscription{st: b.stream(jobID), cursor: from}
}

// Next returns the next event, blocking until one is available. ok is
// false when ctx is done or when the stream has closed and the cursor has
// drained it — after the terminal event has been returned.
func (s *Subscription) Next(ctx context.Context) (ev Event, ok bool) {
	for {
		s.st.mu.Lock()
		if s.cursor < int64(len(s.st.events)) {
			ev = s.st.events[s.cursor]
			s.cursor++
			s.st.mu.Unlock()
			return ev, true
		}
		if s.st.closed {
			s.st.mu.Unlock()
			return Event{}, false
		}
		notify := s.st.notify
		s.st.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, false
		case <-notify:
		}
	}
}

// Sink adapts a Broker to sweep.ProgressSink for one job: RowStarted
// records the row's start on the wall clock, RowDone publishes the
// completion event with the measured wall time. Safe for concurrent use —
// sweep rows complete on parallel workers.
type Sink struct {
	b     *Broker
	jobID string

	mu      sync.Mutex
	started map[int]time.Time
}

// NewSink returns a sink publishing one job's sweep progress to b.
func NewSink(b *Broker, jobID string) *Sink {
	return &Sink{b: b, jobID: jobID, started: make(map[int]time.Time)}
}

// RowStarted implements sweep.ProgressSink.
func (s *Sink) RowStarted(index, total, procs, size int, configHash string) {
	now := time.Now()
	s.mu.Lock()
	s.started[index] = now
	s.mu.Unlock()
}

// RowDone implements sweep.ProgressSink.
func (s *Sink) RowDone(index, total int, row sweep.Row, configHash string) {
	var wall float64
	s.mu.Lock()
	if t0, ok := s.started[index]; ok {
		wall = time.Since(t0).Seconds()
		delete(s.started, index)
	}
	s.mu.Unlock()
	s.b.Publish(s.jobID, Event{
		Type:        "row",
		Row:         index,
		Total:       total,
		ConfigHash:  configHash,
		Procs:       row.Procs,
		Size:        row.Size,
		Cycles:      row.Cycles,
		Frags:       row.Frags,
		WallSeconds: wall,
	})
}

// RowCached implements sweep.RowCachedSink: rows restored from a sweep
// checkpoint store publish as completed rows flagged CacheHit, with no wall
// time — nothing simulated.
func (s *Sink) RowCached(index, total int, row sweep.Row, configHash string) {
	s.b.Publish(s.jobID, Event{
		Type:       "row",
		Row:        index,
		Total:      total,
		ConfigHash: configHash,
		Procs:      row.Procs,
		Size:       row.Size,
		Cycles:     row.Cycles,
		Frags:      row.Frags,
		CacheHit:   true,
	})
}

// ReplaySweep publishes one completion event per row of an
// already-computed sweep result document — the path for results served
// from the cache or computed on another node, where the rows exist but
// were never simulated under this broker. cacheHit marks whether the rows
// came from a cache (true) or a remote simulation (false).
func ReplaySweep(b *Broker, jobID string, payload []byte, cacheHit bool) {
	var res sweep.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return // not a sweep document; nothing to replay
	}
	total := len(res.Rows)
	for i, row := range res.Rows {
		b.Publish(jobID, Event{
			Type:       "row",
			Row:        i,
			Total:      total,
			ConfigHash: res.Spec.RowHash(row),
			Procs:      row.Procs,
			Size:       row.Size,
			Cycles:     row.Cycles,
			Frags:      row.Frags,
			CacheHit:   cacheHit,
		})
	}
}

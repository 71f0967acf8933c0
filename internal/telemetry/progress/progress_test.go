package progress

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

func rowEvent(row int) Event {
	return Event{Type: "row", Row: row, Total: 3, Procs: 4, Size: 16, Cycles: 100, Frags: 7}
}

func TestPublishSubscribeReplay(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 3; i++ {
		b.Publish("job", rowEvent(i))
	}
	b.End("job", "done", "")

	// A subscription from 0 replays the whole log and then drains.
	sub := b.Subscribe("job", 0)
	ctx := context.Background()
	for want := 0; want < 4; want++ {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("Next returned !ok at seq %d", want)
		}
		if ev.Seq != int64(want) {
			t.Fatalf("seq = %d, want %d (dense sequence numbers)", ev.Seq, want)
		}
		if want < 3 {
			if ev.Type != "row" || ev.Row != want {
				t.Fatalf("event %d = %+v, want row %d", want, ev, want)
			}
			if ev.Time == "" {
				t.Fatalf("event %d missing publish timestamp", want)
			}
		} else if !ev.Terminal() || ev.Type != "done" || ev.Row != -1 {
			t.Fatalf("last event = %+v, want terminal done with Row=-1", ev)
		}
	}
	if _, ok := sub.Next(ctx); ok {
		t.Fatal("Next after the terminal event must report !ok")
	}

	// Resuming mid-log (the Last-Event-ID path) is gapless.
	sub = b.Subscribe("job", 2)
	ev, ok := sub.Next(ctx)
	if !ok || ev.Seq != 2 {
		t.Fatalf("resume from 2: got %+v ok=%v, want seq 2", ev, ok)
	}
}

func TestNextBlocksUntilPublish(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe("job", 0) // subscribing before any event is fine
	got := make(chan Event, 1)
	go func() {
		ev, ok := sub.Next(context.Background())
		if ok {
			got <- ev
		}
		close(got)
	}()
	// Give the subscriber a moment to block, then publish.
	time.Sleep(10 * time.Millisecond)
	b.Publish("job", rowEvent(0))
	select {
	case ev := <-got:
		if ev.Row != 0 {
			t.Fatalf("got %+v, want row 0", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Next never observed the publish")
	}
}

func TestNextContextCancel(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe("job", 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next must report !ok when its context dies")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on context cancellation")
	}
}

func TestEndIdempotentAndLatePublishDropped(t *testing.T) {
	b := NewBroker()
	b.Publish("job", rowEvent(0))
	b.End("job", "failed", "boom")
	b.End("job", "done", "")      // second End must not land
	b.Publish("job", rowEvent(1)) // nor a publish after close

	evs := b.Events("job", 0)
	if len(evs) != 2 {
		t.Fatalf("log has %d events, want 2 (row + first terminal): %+v", len(evs), evs)
	}
	if evs[1].Type != "failed" || evs[1].Error != "boom" {
		t.Fatalf("terminal = %+v, want the first End (failed/boom)", evs[1])
	}
	if b.TotalEvents() != 2 {
		t.Fatalf("TotalEvents = %d, want 2 (dropped events must not count)", b.TotalEvents())
	}
}

func TestShutdownClosesOpenStreamsOnly(t *testing.T) {
	b := NewBroker()
	b.Publish("open", rowEvent(0))
	b.Publish("finished", rowEvent(0))
	b.End("finished", "done", "")

	b.Shutdown()
	b.Shutdown() // safe to repeat

	open := b.Events("open", 0)
	if len(open) != 2 || open[1].Type != "shutdown" {
		t.Fatalf("open stream = %+v, want a shutdown terminal appended", open)
	}
	fin := b.Events("finished", 0)
	if len(fin) != 2 || fin[1].Type != "done" {
		t.Fatalf("finished stream = %+v, want its done terminal untouched", fin)
	}

	// Shutdown releases blocked subscribers.
	sub := b.Subscribe("open", 2)
	if _, ok := sub.Next(context.Background()); ok {
		t.Fatal("subscriber past the terminal must drain with !ok")
	}
}

func TestConcurrentPublishersDenseSeqs(t *testing.T) {
	b := NewBroker()
	const publishers, perPublisher = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish("job", rowEvent(p))
			}
		}(p)
	}
	wg.Wait()
	b.End("job", "done", "")

	evs := b.Events("job", 0)
	if len(evs) != publishers*perPublisher+1 {
		t.Fatalf("log has %d events, want %d", len(evs), publishers*perPublisher+1)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("evs[%d].Seq = %d; sequence numbers must stay dense under contention", i, ev.Seq)
		}
	}
	if b.TotalEvents() != int64(len(evs)) {
		t.Fatalf("TotalEvents = %d, want %d", b.TotalEvents(), len(evs))
	}
}

func TestSinkMeasuresWallTime(t *testing.T) {
	b := NewBroker()
	s := NewSink(b, "job")
	s.RowStarted(0, 2, 4, 16, "hash0")
	time.Sleep(5 * time.Millisecond)
	s.RowDone(0, 2, sweep.Row{Procs: 4, Size: 16, Cycles: 123, Frags: 9}, "hash0")
	// A row the sink never saw start still publishes, with zero wall time.
	s.RowDone(1, 2, sweep.Row{Procs: 8, Size: 16}, "hash1")

	evs := b.Events("job", 0)
	if len(evs) != 2 {
		t.Fatalf("log has %d events, want 2", len(evs))
	}
	e0 := evs[0]
	if e0.Row != 0 || e0.Procs != 4 || e0.Size != 16 || e0.Cycles != 123 || e0.Frags != 9 ||
		e0.ConfigHash != "hash0" || e0.Total != 2 {
		t.Fatalf("row event = %+v, want the Row's columns carried through", e0)
	}
	if e0.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0 for a started row", e0.WallSeconds)
	}
	if evs[1].WallSeconds != 0 {
		t.Fatalf("unstarted row WallSeconds = %v, want 0", evs[1].WallSeconds)
	}
}

func TestReplaySweep(t *testing.T) {
	spec := sweep.Spec{Scene: "truc640", Scale: 0.2, Procs: []int{1, 4}, Sizes: []int{16}, Cache: "perfect"}
	ctx := context.Background()
	res, err := sweep.RunWith(ctx, spec, sweep.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBroker()
	ReplaySweep(b, "job", payload, true)
	evs := b.Events("job", 0)
	if len(evs) != len(res.Rows) {
		t.Fatalf("replayed %d events, want one per row (%d)", len(evs), len(res.Rows))
	}
	for i, ev := range evs {
		row := res.Rows[i]
		if ev.Row != i || ev.Procs != row.Procs || ev.Size != row.Size ||
			ev.Cycles != row.Cycles || ev.Frags != row.Frags {
			t.Fatalf("event %d = %+v does not match row %+v", i, ev, row)
		}
		if !ev.CacheHit {
			t.Fatalf("event %d: replayed rows must carry CacheHit", i)
		}
		if ev.ConfigHash == "" {
			t.Fatalf("event %d missing config hash", i)
		}
	}

	// Garbage payloads replay nothing rather than failing.
	ReplaySweep(b, "other", []byte("not json"), false)
	if got := b.Events("other", 0); len(got) != 0 {
		t.Fatalf("garbage payload replayed %d events, want 0", len(got))
	}
}

// TestReplaySweepMatchesLiveHashes: on a cache-axis sweep, each replayed
// row carries the config hash its live RowDone event carried, and rows
// differing only in cache size hash differently.
func TestReplaySweepMatchesLiveHashes(t *testing.T) {
	spec := sweep.Spec{Scene: "truc640", Scale: 0.2, Procs: []int{1, 4}, Sizes: []int{16}, Caches: []int{4, 16}}
	b := NewBroker()
	res, err := sweep.RunWith(context.Background(), spec, sweep.RunOpts{Progress: NewSink(b, "live")})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	ReplaySweep(b, "replay", payload, true)

	live := make(map[int]string)
	for _, ev := range b.Events("live", 0) {
		live[ev.Row] = ev.ConfigHash
	}
	replayed := b.Events("replay", 0)
	if len(live) != len(res.Rows) || len(replayed) != len(res.Rows) {
		t.Fatalf("%d live and %d replayed events, want one each per row (%d)",
			len(live), len(replayed), len(res.Rows))
	}
	seen := make(map[string]int)
	for _, ev := range replayed {
		if ev.ConfigHash != live[ev.Row] {
			t.Errorf("row %d: replayed hash %s, live hash %s", ev.Row, ev.ConfigHash, live[ev.Row])
		}
		if prev, dup := seen[ev.ConfigHash]; dup {
			t.Errorf("rows %d and %d share hash %s", prev, ev.Row, ev.ConfigHash)
		}
		seen[ev.ConfigHash] = ev.Row
	}
}

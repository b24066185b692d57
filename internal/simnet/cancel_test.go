package simnet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context whose Err turns to context.Canceled once it
// has answered nil `left` times; calls counts every Err call.
type countdownCtx struct {
	context.Context
	left, calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDriveWindowCancelsWhilePlanning cancels DriveWindow inside its
// per-service planning loop. Cancelled before the first count is drawn,
// the window returns context.Canceled and leaves the network RNG
// untouched: the next window equals a fresh twin network's. Cancelled
// halfway through the counts, it still returns context.Canceled before
// any descriptor store changes.
func TestDriveWindowCancelsWhilePlanning(t *testing.T) {
	const seed = 31
	net, pop, now := buildNetwork(t, seed)
	twin, _, _ := buildNetwork(t, seed)
	net.PublishAll(pop, now)
	twin.PublishAll(pop, now)
	svcs := len(pop.PopularServices())
	if svcs < 4 {
		t.Fatalf("%d popular services; the cancellation would not land mid-plan", svcs)
	}

	// The entry check passes, the first loop check cancels.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(1)
	if _, err := net.DriveWindow(ctx, pop, now, time.Hour, nil); err != context.Canceled {
		t.Fatalf("cancelled window returned %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != 2 {
		t.Fatalf("window checked the context %d times, want 2: once on entry, once before the first count", n)
	}
	drive := func(n *Network) (TrafficStats, []FetchEvent) {
		var evs []FetchEvent
		st, err := n.DriveWindow(context.Background(), pop, now, time.Hour, func(ev FetchEvent) { evs = append(evs, ev) })
		if err != nil {
			t.Fatal(err)
		}
		return st, evs
	}
	got, gotEvs := drive(net)
	want, wantEvs := drive(twin)
	if got != want || len(gotEvs) != len(wantEvs) {
		t.Fatalf("window after the cancellation: %+v over %d events, twin %+v over %d", got, len(gotEvs), want, len(wantEvs))
	}
	for i := range gotEvs {
		a, b := gotEvs[i], wantEvs[i]
		if a.Client.ID != b.Client.ID || a.Guard != b.Guard || a.Dir != b.Dir || a.DescID != b.DescID ||
			a.Found != b.Found || !a.At.Equal(b.At) {
			t.Fatalf("event %d differs from the twin's:\n%+v\nvs\n%+v", i, a, b)
		}
	}

	// Halfway through the counts: cancelled before the fan-out, so no
	// store records a request.
	before := make([]dirState, len(net.dirs))
	for i, d := range net.dirs {
		before[i] = stateOf(d)
	}
	ctx = &countdownCtx{Context: context.Background()}
	ctx.left.Store(int64(1 + svcs/2))
	if _, err := net.DriveWindow(ctx, pop, now.Add(time.Hour), time.Hour, nil); err != context.Canceled {
		t.Fatalf("window cancelled mid-plan returned %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != int64(2+svcs/2) {
		t.Fatalf("window checked the context %d times, want %d", n, 2+svcs/2)
	}
	for i, d := range net.dirs {
		if diff := diffDir(before[i], stateOf(d)); diff != "" {
			t.Fatalf("directory %d changed under a cancelled window: %s", i, diff)
		}
	}
}

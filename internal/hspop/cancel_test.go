package hspop

import (
	"context"
	"sync/atomic"
	"testing"
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

// TestGenerateCancelsBetweenPhases cancels Generate after each of its
// phases in turn: it must return context.Canceled and no population, and
// stop at the phase boundary where the cancellation landed.
func TestGenerateCancelsBetweenPhases(t *testing.T) {
	const phases = 8
	for k := 1; k < phases; k++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(int64(k))
		pop, err := Generate(ctx, TestConfig(3))
		if err != context.Canceled || pop != nil {
			t.Fatalf("cancelled after %d phases: got (%v, %v), want (nil, context.Canceled)", k, pop, err)
		}
		if n := ctx.calls.Load(); n != int64(k+1) {
			t.Fatalf("cancelled after %d phases: checked the context %d times, want %d", k, n, k+1)
		}
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(phases)
	if _, err := Generate(ctx, TestConfig(3)); err != nil {
		t.Fatalf("a context that outlives every phase: %v", err)
	}
	if n := ctx.calls.Load(); n != phases {
		t.Fatalf("an uncancelled run checked the context %d times, want once per phase (%d)", n, phases)
	}
}

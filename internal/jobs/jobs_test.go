package jobs

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/scenario"
)

// blockingRun returns a stub runner that signals when a job starts and
// blocks until the job context is cancelled or the release channel
// closes.
func blockingRun(started chan<- string, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, j *Job, progress func(experiments.ProgressEvent)) error {
		if started != nil {
			started <- j.id
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	}
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m := NewManager(opts)
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)
	t.Cleanup(func() {
		cancel()
		if err := m.Drain(5 * time.Second); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return m
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if s := j.Status().State; s == want {
			return
		} else if s.Terminal() {
			t.Fatalf("job %s reached terminal state %q, want %q", j.id, s, want)
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %q, want %q", j.id, j.Status().State, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestSubmitDedupesOnCacheKey(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	m := newTestManager(t, Options{Run: blockingRun(started, release)})

	j1, dup, err := m.Submit(scenario.Smoke, 1, []string{experiments.ExpScan})
	if err != nil || dup {
		t.Fatalf("first submit: job=%v dup=%v err=%v", j1, dup, err)
	}
	<-started

	// Same scenario+seed+subset (order-insensitive) → the same job.
	j2, dup, err := m.Submit(scenario.Smoke, 1, []string{experiments.ExpScan})
	if err != nil {
		t.Fatalf("dedupe submit: %v", err)
	}
	if !dup || j2.id != j1.id {
		t.Fatalf("got job %s dup=%v, want dedupe onto %s", j2.id, dup, j1.id)
	}

	// A different seed is different store keys → a new job.
	j3, dup, err := m.Submit(scenario.Smoke, 2, []string{experiments.ExpScan})
	if err != nil || dup {
		t.Fatalf("different-seed submit: dup=%v err=%v", dup, err)
	}
	if j3.id == j1.id {
		t.Fatalf("different seed deduped onto the same job %s", j1.id)
	}

	close(release)
	waitState(t, j1, StateDone)
	waitState(t, j3, StateDone)

	// After the job is terminal, the dedupe slot is free: an identical
	// POST starts a fresh job (which would resume from checkpoints).
	j4, dup, err := m.Submit(scenario.Smoke, 1, []string{experiments.ExpScan})
	if err != nil || dup {
		t.Fatalf("post-terminal submit: dup=%v err=%v", dup, err)
	}
	if j4.id == j1.id {
		t.Fatal("terminal job still occupies the dedupe slot")
	}
}

func TestSubmitValidates(t *testing.T) {
	m := newTestManager(t, Options{Run: blockingRun(nil, nil)})
	if _, _, err := m.Submit("no-such-scenario", 1, nil); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, _, err := m.Submit(scenario.Smoke, 1, []string{"no-such-experiment"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestQueueFullSheds(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	m := newTestManager(t, Options{QueueDepth: 1, Workers: 1, Run: blockingRun(started, release)})

	// Fill the worker, then the queue; submissions land in distinct
	// dedupe slots via distinct seeds.
	if _, _, err := m.Submit(scenario.Smoke, 1, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := m.Submit(scenario.Smoke, 2, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Submit(scenario.Smoke, 3, nil)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: err=%v, want ErrQueueFull", err)
	}
	// A shed submission must not leak a dedupe slot: retrying once the
	// queue has room must be possible, and meanwhile the shed key is
	// absent from the job index.
	for _, st := range m.Jobs() {
		if st.Seed == 3 {
			t.Fatalf("shed submission appears in the job index: %+v", st)
		}
	}
}

func TestJobDeadline(t *testing.T) {
	m := newTestManager(t, Options{JobTimeout: 20 * time.Millisecond, Run: blockingRun(nil, nil)})
	j, _, err := m.Submit(scenario.Smoke, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDeadline)
	if st := j.Status(); st.Err == "" {
		t.Fatal("deadline-exceeded job has no error")
	}
}

func TestFailedJob(t *testing.T) {
	boom := errors.New("boom")
	m := newTestManager(t, Options{Run: func(context.Context, *Job, func(experiments.ProgressEvent)) error {
		return boom
	}})
	j, _, err := m.Submit(scenario.Smoke, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if st := j.Status(); st.Err != "boom" {
		t.Fatalf("failed job err = %q, want %q", st.Err, "boom")
	}
}

func TestDrainCancelsInFlightAndQueued(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(Options{QueueDepth: 2, Workers: 1, Run: blockingRun(started, nil)})
	m.Start(context.Background())

	running, _, err := m.Submit(scenario.Smoke, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(scenario.Smoke, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s := running.Status().State; s != StateCancelled {
		t.Fatalf("in-flight job state = %q, want cancelled", s)
	}
	if s := queued.Status().State; s != StateCancelled {
		t.Fatalf("queued job state = %q, want cancelled", s)
	}
	if !m.Draining() {
		t.Fatal("manager does not report draining")
	}
	if _, _, err := m.Submit(scenario.Smoke, 3, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err=%v, want ErrDraining", err)
	}
}

func TestDrainGraceExceeded(t *testing.T) {
	started := make(chan string, 1)
	// A runner that ignores cancellation simulates a wedged kernel.
	m := NewManager(Options{Run: func(ctx context.Context, j *Job, _ func(experiments.ProgressEvent)) error {
		started <- j.id
		time.Sleep(500 * time.Millisecond)
		return ctx.Err()
	}})
	m.Start(context.Background())
	if _, _, err := m.Submit(scenario.Smoke, 1, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Drain(10 * time.Millisecond); err == nil {
		t.Fatal("drain returned nil despite a wedged job")
	}
	// Let the wedged worker finish so the test does not leak it.
	if err := m.Drain(5 * time.Second); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestEventsReplayAndStream(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m := newTestManager(t, Options{Run: func(ctx context.Context, j *Job, progress func(experiments.ProgressEvent)) error {
		started <- j.id
		progress(experiments.ProgressEvent{Experiment: experiments.ExpScan, Stage: "start"})
		<-release
		progress(experiments.ProgressEvent{Experiment: experiments.ExpScan, Stage: "done"})
		return nil
	}})
	j, _, err := m.Submit(scenario.Smoke, 1, []string{experiments.ExpScan})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Subscribing mid-run replays the history (queued, running, start)
	// before the live tail.
	events, releaseSub := j.Subscribe()
	defer releaseSub()
	close(release)

	var got []Event
	for ev := range events {
		got = append(got, ev)
	}
	want := []Event{
		{Type: "state", State: StateQueued},
		{Type: "state", State: StateRunning},
		{Type: "progress", Experiment: experiments.ExpScan, Stage: "start"},
		{Type: "progress", Experiment: experiments.ExpScan, Stage: "done"},
		{Type: "state", State: StateDone},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Subscribing after the terminal state replays everything and
	// closes immediately.
	events, releaseSub2 := j.Subscribe()
	defer releaseSub2()
	n := 0
	for range events {
		n++
	}
	if n != len(want) {
		t.Fatalf("post-terminal replay delivered %d events, want %d", n, len(want))
	}
}

// TestNoGoroutineLeakAfterCancelledJobs runs a batch of jobs that all
// end cancelled (per-job deadline) with live subscribers attached, then
// checks the goroutine count settles back to the baseline — the drain
// path must not strand workers, subscribers, or timers.
func TestNoGoroutineLeakAfterCancelledJobs(t *testing.T) {
	before := runtime.NumGoroutine()

	m := NewManager(Options{QueueDepth: 32, Workers: 2, JobTimeout: 10 * time.Millisecond,
		Run: blockingRun(nil, nil)})
	m.Start(context.Background())
	var jobs []*Job
	for seed := int64(0); seed < 16; seed++ {
		j, _, err := m.Submit(scenario.Smoke, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev, release := j.Subscribe()
		defer release()
		go func() { // a subscriber that reads until close, like an SSE handler
			for range ev {
			}
		}()
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.done
		if s := j.Status().State; s != StateDeadline {
			t.Fatalf("job %s state = %q, want deadline-exceeded", j.id, s)
		}
	}
	if err := m.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after cancelled jobs\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

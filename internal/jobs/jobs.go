// Package jobs is the study-execution plane behind hsserve: a bounded
// queue of study jobs, each running the experiment pipeline against the
// shared result store with checkpointing armed, under a per-job
// deadline, with progress streamed to subscribers.
//
// The plane leans on the rest of the stack for every hard guarantee:
// dedupe keys are the store's cache keys (two POSTs asking for the same
// bytes share one execution), jobs run with UseCache+Resume so a job
// cancelled by a drain leaves window checkpoints behind and a re-POST
// after restart resumes byte-identically, and cancellation propagates
// through the study context so kernels stop at checkpoint boundaries.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// State is one point in a job's lifecycle:
//
//	queued → running → {done, failed, cancelled, deadline-exceeded}
//
// Submissions shed by a full queue or a draining manager never become
// jobs at all — the caller gets ErrQueueFull / ErrDraining instead.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateDeadline  State = "deadline-exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateDeadline:
		return true
	}
	return false
}

// ErrQueueFull is returned by Submit when the bounded queue has no
// room; callers translate it to 429 with Retry-After.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrDraining is returned by Submit once Drain has begun; callers
// translate it to 503.
var ErrDraining = errors.New("jobs: draining, not accepting jobs")

// Event is one observable transition of a job, delivered to
// subscribers in order: state changes and per-experiment scheduling
// progress.
type Event struct {
	Type       string `json:"type"` // "state" or "progress"
	State      State  `json:"state,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Stage      string `json:"stage,omitempty"` // "cached", "start", "done", "failed"
	Err        string `json:"err,omitempty"`
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID          string   `json:"id"`
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	Experiments []string `json:"experiments,omitempty"` // nil = all
	State       State    `json:"state"`
	Err         string   `json:"err,omitempty"`
}

// Job is one submitted study execution.
type Job struct {
	id          string
	key         string
	scenario    string
	seed        int64
	experiments []string

	mu     sync.Mutex
	state  State
	err    string
	events []Event
	subs   map[chan Event]struct{}
	done   chan struct{}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.id,
		Scenario:    j.scenario,
		Seed:        j.seed,
		Experiments: append([]string(nil), j.experiments...),
		State:       j.state,
		Err:         j.err,
	}
}

// Subscribe returns a channel that replays the job's event history and
// then streams live events, plus a release function the subscriber must
// call when done. The channel is closed after the terminal event.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	j.mu.Lock()
	for _, ev := range j.events {
		sendEvent(ch, ev)
	}
	terminal := j.state.Terminal()
	if !terminal {
		j.subs[ch] = struct{}{}
	}
	j.mu.Unlock()
	if terminal {
		close(ch)
		return ch, func() {}
	}
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// sendEvent delivers without blocking: a subscriber that stops reading
// loses progress events rather than wedging the scheduler (progress is
// advisory; Status and the store are the ground truth).
func sendEvent(ch chan Event, ev Event) {
	select {
	case ch <- ev:
	default:
	}
}

// record appends to history and fans out to subscribers.
func (j *Job) record(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		sendEvent(ch, ev)
	}
	if ev.Type == "state" && ev.State.Terminal() {
		for ch := range j.subs {
			delete(j.subs, ch)
			close(ch)
		}
		close(j.done)
	}
	j.mu.Unlock()
}

// setState transitions the job and emits the state event.
func (j *Job) setState(s State, err error) {
	j.mu.Lock()
	j.state = s
	if err != nil {
		j.err = err.Error()
	}
	j.mu.Unlock()
	ev := Event{Type: "state", State: s}
	if err != nil {
		ev.Err = err.Error()
	}
	j.record(ev)
}

// progress adapts the registry's scheduling hook to job events.
func (j *Job) progress(ev experiments.ProgressEvent) {
	j.record(Event{Type: "progress", Experiment: ev.Experiment, Stage: ev.Stage, Err: ev.Err})
}

// RunFunc executes one job's study. Tests inject stubs; production uses
// the default pipeline runner.
type RunFunc func(ctx context.Context, j *Job, progress func(experiments.ProgressEvent)) error

// Options parameterises a Manager.
type Options struct {
	// Store is the result store jobs publish into (required by the
	// default runner).
	Store *resultstore.Store
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// beyond it Submit sheds with ErrQueueFull. <= 0 means 8.
	QueueDepth int
	// Workers is how many jobs run concurrently. <= 0 means 1 — studies
	// parallelise internally, so one at a time is the sane default.
	Workers int
	// JobTimeout is the per-job deadline (context.WithTimeout). <= 0
	// disables the deadline.
	JobTimeout time.Duration
	// Run overrides the study runner (tests). Nil uses the default,
	// which runs the paper registry with UseCache, CheckpointEvery=1,
	// and Resume armed against Store.
	Run RunFunc
}

// Manager owns the queue, the worker pool, and the dedupe index.
type Manager struct {
	opts   Options
	queue  chan *Job
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job // by ID
	inflight map[string]*Job // by dedupe key, queued or running only
	nextID   int
	draining bool
}

// NewManager builds a manager; call Start before Submit.
func NewManager(opts Options) *Manager {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Run == nil {
		opts.Run = defaultRun(opts.Store)
	}
	return &Manager{
		opts:     opts,
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
}

// defaultRun executes the paper study for the job's scenario, seed, and
// experiment subset. UseCache serves already-persisted documents,
// CheckpointEvery=1 snapshots every window, and Resume folds forward
// from any checkpoint a previous (cancelled or crashed) execution of
// the same key left behind — so a drain-interrupted job re-POSTed later
// produces byte-identical store content to an uninterrupted run.
func defaultRun(store *resultstore.Store) RunFunc {
	return func(ctx context.Context, j *Job, progress func(experiments.ProgressEvent)) error {
		spec, err := scenario.Lookup(j.scenario)
		if err != nil {
			return err
		}
		env, err := experiments.NewEnv(experiments.ConfigFromSpec(spec, j.seed))
		if err != nil {
			return err
		}
		_, err = experiments.Paper().RunStudy(ctx, env, experiments.RunOptions{
			Names:           j.experiments,
			Scenario:        j.scenario,
			Store:           store,
			UseCache:        true,
			CheckpointEvery: 1,
			Resume:          true,
			Progress:        progress,
		}, io.Discard)
		return err
	}
}

// Start launches the worker pool. The workers stop when ctx is
// cancelled or Drain is called.
func (m *Manager) Start(ctx context.Context) {
	ctx, m.cancel = context.WithCancel(ctx)
	m.wg.Add(m.opts.Workers)
	for i := 0; i < m.opts.Workers; i++ {
		go m.worker(ctx)
	}
}

func (m *Manager) worker(ctx context.Context) {
	defer m.wg.Done()
	for {
		select {
		case <-ctx.Done():
			// Flush whatever is still queued as cancelled so no job is
			// left dangling in "queued" after a drain.
			for {
				select {
				case j := <-m.queue:
					m.finish(j, StateCancelled, ctx.Err())
				default:
					return
				}
			}
		case j := <-m.queue:
			m.runJob(ctx, j)
		}
	}
}

func (m *Manager) runJob(ctx context.Context, j *Job) {
	if err := ctx.Err(); err != nil {
		m.finish(j, StateCancelled, err)
		return
	}
	jctx := ctx
	if m.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, m.opts.JobTimeout)
		defer cancel()
	}
	j.setState(StateRunning, nil)
	err := m.opts.Run(jctx, j, j.progress)
	switch {
	case err == nil:
		m.finish(j, StateDone, nil)
	case errors.Is(err, context.DeadlineExceeded):
		m.finish(j, StateDeadline, err)
	case errors.Is(err, context.Canceled):
		m.finish(j, StateCancelled, err)
	default:
		m.finish(j, StateFailed, err)
	}
}

// finish moves a job to its terminal state and frees its dedupe slot,
// so a later identical POST starts a fresh job (which resumes from any
// checkpoints this one flushed).
func (m *Manager) finish(j *Job, s State, err error) {
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()
	j.setState(s, err)
}

// Submit enqueues a study job. When an identical job (same dedupe key)
// is already queued or running, that job is returned with deduped=true
// and nothing new is enqueued. A full queue sheds with ErrQueueFull; a
// draining manager rejects with ErrDraining.
func (m *Manager) Submit(scen string, seed int64, names []string) (job *Job, deduped bool, err error) {
	spec, err := scenario.Lookup(scen)
	if err != nil {
		return nil, false, err
	}
	reg := experiments.Paper()
	for _, n := range names {
		if _, ok := reg.Get(n); !ok {
			return nil, false, fmt.Errorf("jobs: unknown experiment %q", n)
		}
	}
	// Naming an experiment twice selects it once, so the key lists each
	// name once.
	sorted := slices.Compact(slices.Sorted(slices.Values(names)))
	cfg := experiments.ConfigFromSpec(spec, seed)
	key := scen + "|" + cfg.CacheKey() + "|" + strings.Join(sorted, ",")

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[key]; ok {
		return j, true, nil
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	m.nextID++
	j := &Job{
		id:          fmt.Sprintf("s%d", m.nextID),
		key:         key,
		scenario:    scen,
		seed:        seed,
		experiments: append([]string(nil), names...),
		state:       StateQueued,
		subs:        map[chan Event]struct{}{},
		done:        make(chan struct{}),
	}
	j.events = append(j.events, Event{Type: "state", State: StateQueued})
	select {
	case m.queue <- j:
	default:
		return nil, false, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.inflight[key] = j
	return j, false, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every job, newest first.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id > jobs[k].id })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Draining reports whether Drain has begun (readiness probes flip on
// this).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops accepting submissions, cancels in-flight jobs (their
// kernels flush window checkpoints and stop at the next boundary), and
// waits for the workers to finish, up to the grace period. It returns
// nil when everything stopped inside the grace window.
func (m *Manager) Drain(grace time.Duration) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	if m.cancel != nil {
		m.cancel()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("jobs: drain exceeded %v grace period", grace)
	}
}

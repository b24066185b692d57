package experiments

import (
	"context"
	"fmt"
	"sort"

	"torhs/internal/fault"
	"torhs/internal/resultstore"
)

// The checkpoint plane threads step-level snapshots through the trawl
// loops so a crashed study resumes from the latest valid snapshot
// instead of recomputing from scratch. Snapshots are keyed exactly like
// persisted documents — experiment name, scenario label, the Config
// cache key, and the code version — under reserved experiment names
// ("ckpt-trawl-<seed offset>") that can never collide with registered
// experiments (registry names are comma/space-free but user-facing;
// these are namespaced by prefix and never registered). A checkpoint is
// therefore only ever resumed by a run with the identical inputs and
// pipeline code that wrote it.

// EnableCheckpoints arms the environment's checkpoint plane: pipelines
// that support window snapshots persist one every `every` windows into
// store, bucketed under the scenario label, and — when resume is set —
// fold forward from the latest valid snapshot instead of recomputing.
// every <= 0 snapshots every window.
func (e *Env) EnableCheckpoints(store *resultstore.Store, scenario string, every int, resume bool) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.ckptStore = store
	e.ckptScen = scenario
	e.ckptEvery = every
	e.ckptResume = resume
}

// checkpointer returns the named pipeline checkpointer, plus the cadence
// and resume flag to thread alongside it. A nil checkpointer (plane off)
// disables snapshotting in every pipeline that receives it.
func (e *Env) checkpointer(name string) (ck *retryCheckpointer, every int, resume bool, err error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.ckptStore == nil {
		return nil, 0, false, nil
	}
	set, ok := e.ckptSets[name]
	if !ok {
		set, err = e.ckptStore.Checkpoints(storeKey(e.cfg, e.ckptScen, name))
		if err != nil {
			return nil, 0, false, fmt.Errorf("experiments: checkpoint set %q: %w", name, err)
		}
		if e.ckptSets == nil {
			e.ckptSets = make(map[string]*resultstore.CheckpointSet)
		}
		e.ckptSets[name] = set
	}
	return &retryCheckpointer{set: set}, e.ckptEvery, e.ckptResume, nil
}

// clearCheckpoints removes every snapshot the run wrote — the orphan
// cleanup after a study completes, so successful runs leave no
// checkpoint residue behind. Best-effort by design: a failed removal
// must not fail the study that already produced its output.
func (e *Env) clearCheckpoints() {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	names := make([]string, 0, len(e.ckptSets))
	for name := range e.ckptSets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_ = e.ckptSets[name].Clear()
	}
	e.ckptSets = nil
}

// retryCheckpointer adapts a resultstore.CheckpointSet to the
// trawl.Checkpointer interface with the transient-fault retry policy
// wrapped around every store operation. The retry must live here, at
// the store boundary, rather than at the scheduler's task boundary:
// artefact memos latch their first (value, error) pair, so an error
// that escapes an experiment is permanent by construction — transient
// store faults have to be absorbed before they reach the memo.
type retryCheckpointer struct {
	set *resultstore.CheckpointSet
}

// Save persists one window snapshot, retrying transient faults. The ctx
// only gates the retry loop (abort between attempts, skip the backoff
// sleep); cancel-flush callers pass context.WithoutCancel so the final
// snapshot of a cancelled run still lands.
func (r *retryCheckpointer) Save(ctx context.Context, window int, state any) error {
	return fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		return r.set.Save(window, state)
	})
}

// Latest loads the newest valid snapshot, retrying transient faults.
func (r *retryCheckpointer) Latest(ctx context.Context, state any) (window int, ok bool, err error) {
	err = fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		var inner error
		window, ok, inner = r.set.Latest(state)
		return inner
	})
	return window, ok, err
}

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

// EnableIntermediates arms the environment's intermediate-artefact
// plane: pipelines that spill expensive mid-study artefacts (the trawl
// harvests) persist them into store under the run's cache key, and later
// runs with the identical key rehydrate them instead of recomputing.
// Keyed exactly like documents and checkpoints — experiment-namespaced
// reserved names ("int-trawl-<seed offset>"), the scenario label, the
// Config cache key, and the code version — so an intermediate is only
// ever served to a run whose inputs and pipeline code match the writer's.
func (e *Env) EnableIntermediates(store *resultstore.Store, scenario string) {
	e.intMu.Lock()
	defer e.intMu.Unlock()
	e.intStore = store
	e.intScen = scenario
}

// intermediates returns the named pipeline's intermediate set, or nil
// when the plane is off.
func (e *Env) intermediates(name string) (*resultstore.IntermediateSet, error) {
	e.intMu.Lock()
	defer e.intMu.Unlock()
	if e.intStore == nil {
		return nil, nil
	}
	set, ok := e.intSets[name]
	if !ok {
		var err error
		set, err = e.intStore.Intermediates(storeKey(e.cfg, e.intScen, name))
		if err != nil {
			return nil, fmt.Errorf("experiments: intermediate set %q: %w", name, err)
		}
		if e.intSets == nil {
			e.intSets = make(map[string]*resultstore.IntermediateSet)
		}
		e.intSets[name] = set
	}
	return set, nil
}

// intGetRetry reads one intermediate artefact, absorbing transient store
// faults before they can latch into an artefact memo.
func intGetRetry(ctx context.Context, set *resultstore.IntermediateSet, stage string, state any) (ok bool, err error) {
	err = fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		var inner error
		ok, inner = set.Get(stage, state)
		return inner
	})
	return ok, err
}

// intPutRetry spills one intermediate artefact, absorbing transient
// store faults.
func intPutRetry(ctx context.Context, set *resultstore.IntermediateSet, stage string, state any) error {
	return fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		return set.Put(stage, state)
	})
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

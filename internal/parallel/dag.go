package parallel

import (
	"context"
	"fmt"
	"sync"

	"torhs/internal/fault"
)

// DAG runs a set of keyed tasks with declared dependencies on a bounded
// worker pool. A task starts only once every task it depends on has
// finished successfully; tasks with no path between them run
// concurrently, up to the worker limit. The DAG never cancels siblings
// and reports the first error in Add order, so error surfaces are
// deterministic regardless of scheduling.
//
// Each task runs behind the fault plane's parallel.task site and a
// retry policy: errors classified transient (errors.Is(err,
// fault.Transient)) are retried with exponential backoff before the
// task is declared failed. The site fires before the task closure, so
// retrying a boundary fault never re-executes completed work; a
// transient error escaping the closure itself is only retried because
// the layers below either latch their result or retry internally.
type DAG struct {
	workers int
	retry   fault.RetryPolicy
	keys    []string
	nodes   map[string]*dagNode
}

type dagNode struct {
	deps    []string
	fn      func() error
	done    chan struct{}
	err     error // written before done closes, read only after
	skipped bool  // a dependency failed or was itself skipped
}

// NewDAG creates a scheduler running at most workers tasks at once
// (workers <= 0 means one per CPU).
func NewDAG(workers int) *DAG {
	return &DAG{
		workers: Workers(workers),
		retry:   fault.DefaultRetry,
		nodes:   make(map[string]*dagNode),
	}
}

// SetRetry replaces the scheduler's transient-fault retry policy (the
// default is fault.DefaultRetry). Must be called before Run.
func (d *DAG) SetRetry(p fault.RetryPolicy) { d.retry = p }

// Add registers fn under key, to run after every task named in deps.
// Dependencies may be added in any order before Run; Add only rejects a
// duplicate key.
func (d *DAG) Add(key string, deps []string, fn func() error) error {
	if _, dup := d.nodes[key]; dup {
		return fmt.Errorf("parallel: duplicate DAG task %q", key)
	}
	d.keys = append(d.keys, key)
	d.nodes[key] = &dagNode{
		deps: append([]string(nil), deps...),
		fn:   fn,
		done: make(chan struct{}),
	}
	return nil
}

// validate rejects edges to unknown tasks and dependency cycles (via
// Kahn's algorithm) before anything runs, so a malformed graph fails
// fast instead of deadlocking.
func (d *DAG) validate() error {
	indeg := make(map[string]int, len(d.keys))
	dependents := make(map[string][]string, len(d.keys))
	for _, key := range d.keys {
		n := d.nodes[key]
		for _, dep := range n.deps {
			if _, ok := d.nodes[dep]; !ok {
				return fmt.Errorf("parallel: DAG task %q depends on unknown task %q", key, dep)
			}
			indeg[key]++
			dependents[dep] = append(dependents[dep], key)
		}
	}
	queue := make([]string, 0, len(d.keys))
	for _, key := range d.keys {
		if indeg[key] == 0 {
			queue = append(queue, key)
		}
	}
	seen := 0
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		seen++
		for _, dep := range dependents[key] {
			if indeg[dep]--; indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if seen != len(d.keys) {
		var cyclic []string
		for _, key := range d.keys {
			if indeg[key] > 0 {
				cyclic = append(cyclic, key)
			}
		}
		return fmt.Errorf("parallel: DAG dependency cycle through %v", cyclic)
	}
	return nil
}

// Run validates the graph, executes it, and blocks until every runnable
// task has finished. It returns the first error in Add order: either a
// graph-shape error (unknown dependency, cycle) before anything runs, or
// the first task error. Tasks downstream of a failed task are skipped.
// Run must be called at most once.
//
// Cancelling ctx stops the schedule at task boundaries: tasks that have
// not yet started record ctx.Err() instead of running (their dependents
// are skipped like any other failure), tasks already executing are
// cancelled through the ctx their closure observes, and Run still waits
// for every in-flight task to return — there are no goroutines left
// behind, and a task that completed before the cancellation keeps its
// result.
func (d *DAG) Run(ctx context.Context) error {
	if err := d.validate(); err != nil {
		return err
	}
	limit := make(chan struct{}, d.workers)
	var wg sync.WaitGroup
	wg.Add(len(d.keys))
	for _, key := range d.keys {
		n := d.nodes[key]
		go func(key string, n *dagNode) {
			defer wg.Done()
			defer close(n.done)
			for _, dep := range n.deps {
				dn := d.nodes[dep]
				<-dn.done
				if dn.err != nil || dn.skipped {
					n.skipped = true
				}
			}
			if n.skipped {
				return
			}
			select {
			case limit <- struct{}{}:
			case <-ctx.Done():
				n.err = ctx.Err()
				return
			}
			defer func() { <-limit }()
			n.err = fault.RetryCtx(ctx, d.retry, func() error {
				if err := fault.Hit(fault.SiteTask); err != nil {
					return err
				}
				return n.fn()
			})
		}(key, n)
	}
	wg.Wait()
	for _, key := range d.keys {
		if err := d.nodes[key].err; err != nil {
			return err
		}
	}
	return nil
}

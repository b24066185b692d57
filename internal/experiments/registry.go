package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"

	"torhs/internal/fault"
	"torhs/internal/parallel"
	"torhs/internal/report"
	"torhs/internal/resultstore"
)

// Artefact is one finished experiment result: a typed report document
// holding the paper's tables and figures. Callers encode it with the
// report encoders (report.EncodeText reproduces the study's printed
// output).
type Artefact interface {
	Document() *report.Document
}

// Experiment is one entry in the registry: a named, dependency-declaring
// unit of the study. Run executes against the shared substrate; results
// of experiments listed in Needs are available through Env.Dep. The
// context is per run — implementations must observe it at their natural
// boundaries and never retain it.
type Experiment interface {
	Name() string
	Needs() []string
	Run(ctx context.Context, e *Env) (Artefact, error)
}

// NewExperiment builds an Experiment from a closure. doc is the one-line
// description surfaced by Registry.Describe (and `hsstudy -list`).
func NewExperiment(name, doc string, needs []string, run func(ctx context.Context, e *Env) (Artefact, error)) Experiment {
	return funcExp{name: name, doc: doc, needs: needs, run: run}
}

type funcExp struct {
	name  string
	doc   string
	needs []string
	run   func(ctx context.Context, e *Env) (Artefact, error)
}

func (f funcExp) Name() string { return f.name }

func (f funcExp) Needs() []string { return append([]string(nil), f.needs...) }

func (f funcExp) Run(ctx context.Context, e *Env) (Artefact, error) { return f.run(ctx, e) }

func (f funcExp) Doc() string { return f.doc }

// Registry holds experiments in registration order, which doubles as the
// stable render order (for the paper registry: the paper's artefact
// order). Registration requires dependencies to be registered first, so
// the graph is acyclic by construction.
type Registry struct {
	order  []Experiment
	byName map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Experiment)}
}

// Register appends e to the registry. Names must be unique,
// comma/space-free (the CLI splits subsets on commas), and every
// dependency must already be registered.
func (r *Registry) Register(e Experiment) error {
	name := e.Name()
	if name == "" || name == "all" || strings.ContainsAny(name, ", \t\n") {
		return fmt.Errorf("experiments: invalid experiment name %q", name)
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("experiments: duplicate experiment %q", name)
	}
	for _, dep := range e.Needs() {
		if _, ok := r.byName[dep]; !ok {
			return fmt.Errorf("experiments: %q needs unregistered experiment %q (register dependencies first)", name, dep)
		}
	}
	r.byName[name] = e
	r.order = append(r.order, e)
	return nil
}

// Names lists every registered experiment in render order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.Name()
	}
	return out
}

// Get returns the named experiment.
func (r *Registry) Get(name string) (Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// Describe returns an experiment's one-line description, if it carries
// one (experiments built with NewExperiment do).
func (r *Registry) Describe(name string) string {
	if e, ok := r.byName[name]; ok {
		if d, ok := e.(interface{ Doc() string }); ok {
			return d.Doc()
		}
	}
	return ""
}

// closure expands registered names to their transitive dependency
// closure as a membership set — the one traversal Resolve and the
// cache-aware scheduler share.
func (r *Registry) closure(names []string) map[string]bool {
	want := make(map[string]bool)
	var add func(name string)
	add = func(name string) {
		if want[name] {
			return
		}
		want[name] = true
		for _, dep := range r.byName[name].Needs() {
			add(dep)
		}
	}
	for _, name := range names {
		add(name)
	}
	return want
}

// Resolve expands names to their dependency closure, returned in render
// order. nil or empty names selects every registered experiment.
func (r *Registry) Resolve(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		return append([]Experiment(nil), r.order...), nil
	}
	for _, name := range names {
		if _, ok := r.byName[name]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have: %s)", name, strings.Join(r.Names(), ", "))
		}
	}
	want := r.closure(names)
	out := make([]Experiment, 0, len(want))
	for _, e := range r.order {
		if want[e.Name()] {
			out = append(out, e)
		}
	}
	return out, nil
}

// artefact returns the experiment's memoized artefact, running it (and,
// when called outside the scheduler, any missing dependencies) first.
// The memo makes every path single-flight: the scheduler, the Study
// wrappers and direct calls all converge on one execution per Env — the
// first caller's ctx governs the execution (concurrent callers share
// its outcome, including a ctx.Err(), which the memo latches like any
// other failure).
func (r *Registry) artefact(ctx context.Context, env *Env, name string) (Artefact, error) {
	exp, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	m := env.artefactMemo(name)
	return m.get(func() (Artefact, error) {
		for _, dep := range exp.Needs() {
			if _, err := r.artefact(ctx, env, dep); err != nil {
				return nil, err
			}
		}
		a, err := exp.Run(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return a, nil
	})
}

// OutputVersion tags the pipeline code that determines rendered output.
// It is part of every result-store cache key, so bumping it invalidates
// persisted artefacts when an experiment or section builder changes
// what it emits.
const OutputVersion = "6"

// RunOptions parameterises one pipeline invocation.
type RunOptions struct {
	// Names selects experiments (nil or empty = all registered).
	Names []string
	// Format is the output encoding (report.Formats; "" = text). Text
	// output concatenates per-experiment documents byte-identically to
	// the historical study render; other formats combine the selected
	// documents into one and encode it once.
	Format string
	// Scenario names the preset the Env's config came from; it buckets
	// the result store's serving index. Defaults to "custom" when a
	// store is used without a name.
	Scenario string
	// Store, when non-nil, persists every produced document.
	Store *resultstore.Store
	// UseCache consults the store before scheduling: experiments whose
	// documents are already persisted under the exact cache key are not
	// executed (nor are dependencies only they would have needed), and
	// their documents are served from the store instead.
	UseCache bool
	// CheckpointEvery, when > 0 and Store is set, snapshots the
	// long-running pipelines (trawl loops, tracking sweep) every N
	// windows so a crashed run can resume. Snapshots live in the store
	// under reserved ckpt-* experiment names and are cleared when the
	// run completes.
	CheckpointEvery int
	// Resume, with Store set, folds the checkpointing pipelines forward
	// from their latest valid snapshot instead of recomputing from
	// window zero. A run with no (or stale-keyed) snapshots starts from
	// scratch — resuming is always safe, never required.
	Resume bool
	// Progress, when non-nil, observes scheduling transitions: it fires
	// from scheduler goroutines (implementations must be safe for
	// concurrent use) and must return quickly — it sits on the task
	// boundary, not the hot path.
	Progress func(ProgressEvent)
}

// ProgressEvent is one scheduling transition of one experiment.
type ProgressEvent struct {
	// Experiment is the registered name.
	Experiment string
	// Stage is "cached", "start", "done", or "failed".
	Stage string
	// Err carries the failure message when Stage is "failed".
	Err string
}

// RunResult reports what one pipeline invocation actually did.
type RunResult struct {
	// Executed lists every experiment that ran (selected or dependency),
	// in render order.
	Executed []string
	// Cached lists the selected experiments served from the store
	// without executing, in render order.
	Cached []string
}

// storeKey builds the content-address key for one experiment's document
// under this Env's configuration. The code version combines the
// pipeline's output version with the report model's schema version, so
// either kind of change invalidates persisted artefacts.
func storeKey(cfg Config, scenario, experiment string) resultstore.Key {
	return resultstore.Key{
		Experiment:  experiment,
		Scenario:    scenario,
		Params:      cfg.CacheKey(),
		CodeVersion: OutputVersion + "/" + report.SchemaVersion,
	}
}

// putRetry persists one document, absorbing transient store faults with
// the default backoff policy before they can reach an artefact memo or
// abort the run. Cancelling ctx aborts the backoff wait, not a write in
// flight (store writes are atomic renames).
func putRetry(ctx context.Context, s *resultstore.Store, k resultstore.Key, doc *report.Document) (string, error) {
	var hash string
	err := fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		var inner error
		hash, inner = s.Put(k, doc)
		return inner
	})
	return hash, err
}

// getRetry reads one document, absorbing transient store faults.
func getRetry(ctx context.Context, s *resultstore.Store, k resultstore.Key) (doc *report.Document, hash string, ok bool, err error) {
	err = fault.RetryCtx(ctx, fault.DefaultRetry, func() error {
		var inner error
		doc, hash, ok, inner = s.Get(k)
		return inner
	})
	return doc, hash, ok, err
}

// RunStudy runs the selected experiments (opts.Names; nil or empty
// means all): it resolves the selection, serves cache hits from the
// store, schedules only the experiments that still need to execute
// (plus their dependency closure) on the parallel DAG, persists fresh
// documents, and encodes the selected documents to w in stable render
// order (nil w skips encoding — store-only runs). Dependencies pulled in
// only for their results are executed but not encoded. For a fixed seed
// the output is byte-identical at every worker count and for every
// subset: each experiment encodes exactly the bytes it contributes to
// the full study.
//
// Cancelling ctx stops the schedule at the kernels' checkpoint
// boundaries and returns ctx.Err(). The stop is checkpoint-safe:
// checkpointing kernels flush their latest window snapshot on the way
// out, every experiment that completed before the cancellation persists
// its full document (partial documents never reach the store — an
// artefact either finished or left nothing), and the window snapshots
// are NOT cleared, so a later Resume run picks up exactly where the
// cancelled one stopped and produces byte-identical output.
func (r *Registry) RunStudy(ctx context.Context, env *Env, opts RunOptions, w io.Writer) (*RunResult, error) {
	format := opts.Format
	if format == "" {
		format = report.FormatText
	}
	if err := report.ValidFormat(format); err != nil {
		return nil, err
	}
	scenario := opts.Scenario
	if scenario == "" {
		scenario = "custom"
	}
	if opts.Store != nil && (opts.CheckpointEvery > 0 || opts.Resume) {
		env.EnableCheckpoints(opts.Store, scenario, opts.CheckpointEvery, opts.Resume)
	}
	if opts.Store != nil && opts.UseCache {
		env.EnableIntermediates(opts.Store, scenario)
	}

	exps, err := r.Resolve(opts.Names)
	if err != nil {
		return nil, err
	}
	selected := make(map[string]bool, len(opts.Names))
	if len(opts.Names) == 0 {
		for _, e := range exps {
			selected[e.Name()] = true
		}
	} else {
		for _, name := range opts.Names {
			selected[name] = true
		}
	}

	emit := func(ev ProgressEvent) {
		if opts.Progress != nil {
			opts.Progress(ev)
		}
	}

	// Cache pass: a selected experiment whose document is persisted
	// under the exact key is served from the store and never scheduled.
	cached := make(map[string]*report.Document)
	cachedHash := make(map[string]string)
	if opts.UseCache && opts.Store != nil {
		for _, exp := range exps {
			name := exp.Name()
			if !selected[name] {
				continue
			}
			doc, hash, ok, err := getRetry(ctx, opts.Store, storeKey(env.cfg, scenario, name))
			if err != nil {
				return nil, err
			}
			if ok {
				cached[name] = doc
				cachedHash[name] = hash
			}
		}
	}

	// The run set is the dependency closure of the non-cached selected
	// experiments: dependencies of cache hits do not execute unless a
	// miss still needs them.
	var misses []string
	for _, exp := range exps {
		if selected[exp.Name()] && cached[exp.Name()] == nil {
			misses = append(misses, exp.Name())
		}
	}
	toRun := r.closure(misses)

	res := &RunResult{}
	d := parallel.NewDAG(env.cfg.Workers)
	for _, exp := range exps {
		name := exp.Name()
		if !toRun[name] {
			continue
		}
		res.Executed = append(res.Executed, name)
		if err := d.Add(name, exp.Needs(), func() error {
			emit(ProgressEvent{Experiment: name, Stage: "start"})
			// The profiler label follows the experiment into every
			// goroutine it starts (parallel.Chunks workers included), so
			// `go tool pprof -tagfocus experiment=NAME` splits a CPU
			// profile by experiment. Labels never reach the output.
			var err error
			pprof.Do(ctx, pprof.Labels("experiment", name), func(ctx context.Context) {
				_, err = r.artefact(ctx, env, name)
			})
			if err != nil {
				emit(ProgressEvent{Experiment: name, Stage: "failed", Err: err.Error()})
				return err
			}
			emit(ProgressEvent{Experiment: name, Stage: "done"})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := d.Run(ctx); err != nil {
		// Surface partial results: every experiment that completed
		// before the failure (or cancellation) persists its document, so
		// the failed run's work is already cached when the study is
		// retried (or resumed) and visible to the serving layer.
		// Best-effort — the scheduler error is the one the caller must
		// see — and deliberately uncancellable: only *complete* artefact
		// documents are in the memos, and losing them to an already-
		// cancelled ctx would throw away finished work.
		if opts.Store != nil {
			persistCtx := context.WithoutCancel(ctx)
			for _, exp := range exps {
				name := exp.Name()
				if !toRun[name] {
					continue
				}
				a, aerr, ok := env.artefactMemo(name).peek()
				if !ok || aerr != nil {
					continue
				}
				_, _ = putRetry(persistCtx, opts.Store, storeKey(env.cfg, scenario, name), a.Document())
			}
		}
		return nil, err
	}

	// Collect documents in render order. Every executed experiment —
	// selected or dependency — persists its document, so a later run
	// selecting the dependency alone is a cache hit. A cache hit that
	// executed anyway (a miss depends on it) is reported as executed,
	// not cached: Cached lists only experiments that truly skipped
	// execution.
	var docs []*report.Document
	for _, exp := range exps {
		name := exp.Name()
		doc := cached[name]
		if doc != nil && toRun[name] {
			doc = nil
		}
		switch {
		case doc != nil:
			res.Cached = append(res.Cached, name)
			emit(ProgressEvent{Experiment: name, Stage: "cached"})
			// The key matched (the hash ignores the scenario label),
			// but this label's serving slot may not exist yet — bind it
			// so the run is servable under the label it asked for.
			// Best-effort: the documents are in hand either way, and a
			// read-only store (another user's, a shared mount) must not
			// abort a fully-cached render.
			_ = opts.Store.Bind(storeKey(env.cfg, scenario, name), cachedHash[name])
		case toRun[name]:
			a, err := r.artefact(ctx, env, name)
			if err != nil {
				return nil, err
			}
			doc = a.Document()
			if opts.Store != nil {
				if _, err := putRetry(ctx, opts.Store, storeKey(env.cfg, scenario, name), doc); err != nil {
					return nil, err
				}
			}
		}
		if selected[name] && doc != nil {
			docs = append(docs, doc)
		}
	}
	// The run completed and every document is in hand (and persisted):
	// any window snapshots it wrote are now orphans — remove them.
	env.clearCheckpoints()

	if w == nil {
		return res, nil
	}
	if format == report.FormatText {
		// Concatenated per-document text: byte-identical to the
		// historical study render and to every subset slice of it.
		for _, doc := range docs {
			if err := report.EncodeText(w, doc); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	combined := report.New(scenario)
	if len(docs) > 0 {
		combined = docs[0].Append(docs[1:]...)
		combined.Title = scenario
	}
	if err := report.Encode(w, combined, format); err != nil {
		return nil, err
	}
	return res, nil
}

// Experiment names of the paper registry, in the paper's artefact order.
const (
	ExpCollection    = "collection"
	ExpScan          = "scan"
	ExpContent       = "content"
	ExpPrefixAudit   = "prefix-audit"
	ExpPopularity    = "popularity"
	ExpDeanon        = "deanon"
	ExpServiceDeanon = "service-deanon"
	ExpTracking      = "tracking"
)

// registerPaper wires the paper's eight experiments, in artefact order.
func registerPaper(r *Registry) error {
	for _, e := range []Experiment{
		NewExperiment(ExpCollection,
			"introduction: link-graph crawl vs the trawling attack over one landscape",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				res, err := e.runCollectionComparison(ctx)
				if err != nil {
					return nil, err
				}
				return &collectionArtefact{res: res}, nil
			}),
		NewExperiment(ExpScan,
			"Fig. 1 open-ports distribution + Section III certificate audit",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				res, audit, err := e.runScan(ctx)
				if err != nil {
					return nil, err
				}
				return &scanArtefact{res: res, audit: audit}, nil
			}),
		NewExperiment(ExpContent,
			"Table I destinations, Section IV language mix, Fig. 2 topics",
			[]string{ExpScan},
			func(ctx context.Context, e *Env) (Artefact, error) {
				dep, err := e.Dep(ExpScan)
				if err != nil {
					return nil, err
				}
				res, err := e.runContent(ctx, dep.(*scanArtefact).res)
				if err != nil {
					return nil, err
				}
				return &contentArtefact{res: res}, nil
			}),
		NewExperiment(ExpPrefixAudit,
			"vanity-prefix clusters (the paper's silkroa phishing audit)",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				clusters, err := e.runPrefixAudit(ctx, 7, 3)
				if err != nil {
					return nil, err
				}
				return &prefixArtefact{clusters: clusters}, nil
			}),
		NewExperiment(ExpPopularity,
			"Table II popularity ranking over the trawled request log",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				res, err := e.runPopularity(ctx)
				if err != nil {
					return nil, err
				}
				return &popularityArtefact{res: res, topN: e.cfg.popularityTopN()}, nil
			}),
		NewExperiment(ExpDeanon,
			"Fig. 3: deanonymise the clients of the rank-1 Goldnet front",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				rep, err := e.runDeanon(ctx)
				if err != nil {
					return nil, err
				}
				return &deanonArtefact{rep: rep}, nil
			}),
		NewExperiment(ExpServiceDeanon,
			"Section II-B service-side guard attack on the Silk Road stand-in",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				rep, err := e.runServiceDeanon(ctx)
				if err != nil {
					return nil, err
				}
				return &serviceDeanonArtefact{rep: rep}, nil
			}),
		NewExperiment(ExpTracking,
			"Section VII tracking detection on the Silk Road consensus history",
			nil,
			func(ctx context.Context, e *Env) (Artefact, error) {
				res, err := e.runTracking(ctx)
				if err != nil {
					return nil, err
				}
				return &trackingArtefact{res: res}, nil
			}),
	} {
		if err := r.Register(e); err != nil {
			return err
		}
	}
	return nil
}

// paperRegistry is the immutable shared instance behind Study's typed
// wrappers; external callers get their own mutable copy from Paper.
var paperRegistry = Paper()

// Paper returns a fresh registry holding the paper's eight experiments
// in artefact order. Callers may Register additional experiments; the
// scheduler, subset selection and rendering pick them up with no other
// wiring.
func Paper() *Registry {
	r := NewRegistry()
	if err := registerPaper(r); err != nil {
		panic(err)
	}
	return r
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"time"

	"torhs/internal/core/popularity"
	"torhs/internal/core/tracking"
	"torhs/internal/experiments"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
	"torhs/internal/simnet"
)

// studySpec configures a study workload: a scenario preset plus only
// output-relevant overrides. Workers stay at one per CPU.
type studySpec struct {
	Preset string
	// Experiments selects a subset (nil = all eight).
	Experiments []string
	// TrawlSteps / TrackingDays override the preset when > 0.
	TrawlSteps   int
	TrackingDays int
	// Stored runs with the job plane's options (jobs.defaultRun) against
	// a fresh result store: UseCache, CheckpointEvery=1, Resume.
	Stored bool
}

func (s studySpec) config(seed int64) (experiments.Config, error) {
	sp, err := scenario.Lookup(s.Preset)
	if err != nil {
		return experiments.Config{}, err
	}
	cfg := experiments.ConfigFromSpec(sp, seed)
	if s.TrawlSteps > 0 {
		cfg.TrawlSteps = s.TrawlSteps
	}
	if s.TrackingDays > 0 {
		cfg.TrackingDays = s.TrackingDays
	}
	return cfg, nil
}

func (s studySpec) runs(name string) bool {
	return len(s.Experiments) == 0 || slices.Contains(s.Experiments, name)
}

// Relay-network seed offsets the paper experiments draw from the Env:
// the trawls of collection and popularity mutate private sims, deanon and
// service-deanon read the first consensus of theirs. Building them is
// set-up, not the study's work.
var (
	trawlSimOffsets = map[string]int64{experiments.ExpCollection: 4, experiments.ExpPopularity: 1}
	consensusOffset = map[string]int64{experiments.ExpDeanon: 2, experiments.ExpServiceDeanon: 3}
)

// buildSims builds the relay sims and consensus memos the selected
// experiments use.
func (s studySpec) buildSims(env *experiments.Env) error {
	for _, name := range experiments.Paper().Names() {
		if !s.runs(name) {
			continue
		}
		if off, ok := trawlSimOffsets[name]; ok {
			if _, err := env.RelaySim(off); err != nil {
				return err
			}
		}
		if off, ok := consensusOffset[name]; ok {
			if _, err := env.Consensus(off); err != nil {
				return err
			}
		}
	}
	return nil
}

// childEnv carries a childRequest to a re-executed benchmark process.
const childEnv = "PERFBENCH_CHILD"

type childRequest struct {
	Spec    studySpec
	Seed    int64
	Trace   bool
	Workdir string
	// SetupOnly stops the repetition after set-up.
	SetupOnly bool
}

// minSetups is how many set-ups a study run measures at least (in
// set-up-only processes beyond its full repetitions): setup_s is their
// median. A set-up is short, so many of them cost little.
const minSetups = 15

// studyRep is one repetition's measurements, as a child reports them.
type studyRep struct {
	SetupS    float64
	WallS     float64
	CPUS      float64
	AllocMB   float64
	PeakRSSMB float64
	// Digest is the sha256 of the text report.
	Digest string
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64
}

func childMain(reqJSON string) int {
	var req childRequest
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	rep, err := runStudyRep(context.Background(), req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// spawnRep runs one repetition in a fresh process.
func spawnRep(req childRequest) (*studyRep, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(data))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("study repetition: %w", err)
	}
	var rep studyRep
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("study repetition output: %w", err)
	}
	return &rep, nil
}

// runStudyRep is one repetition: set-up, one RunStudy, and (traced)
// the per-layer measurements around it.
func runStudyRep(ctx context.Context, req childRequest) (*studyRep, error) {
	begin := time.Now()
	cfg, err := req.Spec.config(req.Seed)
	if err != nil {
		return nil, err
	}
	rep := &studyRep{}
	// tracing is the time spent in the trace's own calls.
	var tracing time.Duration
	if req.Trace {
		rep.Layers = map[string]float64{}
		t := time.Now()
		if err := traceSetup(ctx, req.Spec, cfg, rep.Layers); err != nil {
			return nil, err
		}
		tracing += time.Since(t)
	}

	t0 := time.Now()
	study, err := experiments.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	env := study.Env()
	if err := req.Spec.buildSims(env); err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t0).Seconds()
	if req.SetupOnly {
		return rep, nil
	}

	opts := experiments.RunOptions{Names: req.Spec.Experiments}
	var storeDir string
	if req.Spec.Stored {
		storeDir, err = os.MkdirTemp(req.Workdir, "store-")
		if err != nil {
			return nil, err
		}
		defer removeAll(storeDir)
		store, err := resultstore.Open(storeDir)
		if err != nil {
			return nil, err
		}
		opts.Scenario = req.Spec.Preset
		opts.Store = store
		opts.UseCache = true
		opts.CheckpointEvery = 1
		opts.Resume = true
	}
	var mu sync.Mutex
	started := map[string]time.Duration{}
	spans := map[string]time.Duration{}
	var t1 time.Time
	opts.Progress = func(ev experiments.ProgressEvent) {
		at := time.Since(t1)
		mu.Lock()
		defer mu.Unlock()
		switch ev.Stage {
		case "start":
			started[ev.Experiment] = at
		case "done":
			spans[ev.Experiment] = at - started[ev.Experiment]
		}
	}

	var out bytes.Buffer
	rt0, cpu0 := readRuntime(), cpuSelf()
	t1 = time.Now()
	if _, err := experiments.Paper().RunStudy(ctx, env, opts, &out); err != nil {
		return nil, err
	}
	rep.WallS = time.Since(t1).Seconds()
	rep.CPUS = (cpuSelf() - cpu0).Seconds()
	rt1 := readRuntime()
	rep.AllocMB = allocMB(rt0, rt1)
	sum := sha256.Sum256(out.Bytes())
	rep.Digest = hex.EncodeToString(sum[:])
	if rep.PeakRSSMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}

	if req.Trace {
		l := rep.Layers
		l["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
		l["runtime.gc_cpu_s"] = rt1.gcCPU - rt0.gcCPU
		for name, d := range spans {
			l["experiments."+name+"_s"] = d.Seconds()
		}
		t := time.Now()
		if err := traceAfter(ctx, req.Spec, cfg, study, out.String(), l); err != nil {
			return nil, err
		}
		if storeDir != "" {
			if err := traceStore(opts.Store, storeDir, l); err != nil {
				return nil, err
			}
		}
		tracing += time.Since(t)
		// The trace adds no code inside RunStudy, so its overhead is the
		// share of the repetition it spends in its own calls.
		l["trace.overhead_frac"] = tracing.Seconds() / time.Since(begin).Seconds()
	}
	return rep, nil
}

// traceSetup times each set-up layer on its own Env: the population
// generator, the reachability fabric, and the relay sims with their
// consensus memos.
func traceSetup(ctx context.Context, spec studySpec, cfg experiments.Config, l map[string]float64) error {
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := env.Population(ctx); err != nil {
		return err
	}
	l["hspop.generate_s"] = time.Since(t).Seconds()
	t = time.Now()
	if _, err := env.Fabric(ctx); err != nil {
		return err
	}
	l["darknet.fabric_s"] = time.Since(t).Seconds()
	t = time.Now()
	if err := spec.buildSims(env); err != nil {
		return err
	}
	l["relaynet.sims_s"] = time.Since(t).Seconds()
	return nil
}

// studySecretTable is the secret-id-part window the traffic experiments
// share: the fleet's first days plus the resolution window and the
// maximum client clock skew on either side.
func studySecretTable(env *experiments.Env, seed int64) *onion.SecretIDTable {
	base := relaynet.DefaultFleetConfig(seed).Start
	return env.SecretTable(base.Add(-9*24*time.Hour), base.Add(13*24*time.Hour))
}

var (
	attemptedRe  = regexp.MustCompile(`(?m)^attempted: (\d+),`)
	classifiedRe = regexp.MustCompile(`(?m)^classified: (\d+)$`)
)

// traceAfter re-invokes the kernels the run used, one at a time, after
// the run: popularity resolution over the run's own harvest, descriptor
// publication and one driven window on the deanon network, and an
// uncheckpointed tracking sweep. It also reads the content counts from
// the report.
func traceAfter(ctx context.Context, spec studySpec, cfg experiments.Config, study *experiments.Study, report string, l map[string]float64) error {
	env := study.Env()
	if spec.runs(experiments.ExpPopularity) {
		pr, err := study.RunPopularity()
		if err != nil {
			return err
		}
		pop := study.Population()
		start := relaynet.DefaultFleetConfig(cfg.Seed).Start.Add(48 * time.Hour)
		r0, t := readRuntime(), time.Now()
		ix, err := popularity.BuildIndexTable(pr.Harvest.PermIDs,
			start.Add(-7*24*time.Hour), start.Add(7*24*time.Hour), cfg.Workers,
			studySecretTable(env, cfg.Seed))
		if err != nil {
			return err
		}
		res := popularity.ResolveLog(pr.Harvest.Log, ix)
		popularity.Rank(res, func(a onion.Address) string {
			if svc, ok := pop.ByAddress(a); ok {
				return svc.Label
			}
			return ""
		})
		resolve := time.Since(t)
		l["popularity.resolve_ms"] = millis(resolve)
		l["popularity.resolve_alloc_mb"] = allocMB(r0, readRuntime())
		l["popularity.unique_ids"] = float64(res.UniqueIDs)
		l["popularity.resolved_ids"] = float64(res.ResolvedIDs)
		harvest := l["experiments.popularity_s"] - resolve.Seconds()
		l["trawl.harvest_s"] = harvest
		l["trawl.step_ms"] = harvest * 1000 / float64(cfg.TrawlSteps)
		l["trawl.addresses"] = float64(len(pr.Harvest.Addresses))
	}

	if err := traceSimnet(ctx, cfg, study, l); err != nil {
		return err
	}

	if spec.runs(experiments.ExpTracking) {
		scCfg := tracking.DefaultScenarioConfig(cfg.Seed)
		if cfg.TrackingDays > 0 {
			scCfg.Days = cfg.TrackingDays
		}
		tkCfg := tracking.DefaultConfig()
		tkCfg.Workers = cfg.Workers
		an, err := tracking.NewAnalyzer(tkCfg)
		if err != nil {
			return err
		}
		r0, t := readRuntime(), time.Now()
		sc, src, err := tracking.NewScenarioSource(scCfg, 0)
		if err != nil {
			return err
		}
		an.SetSecretTable(env.SecretTable(sc.Start, sc.Start.Add(time.Duration(scCfg.Days)*24*time.Hour)))
		if _, err := an.AnalyzeSource(ctx, src, sc.Target, nil, 0, false); err != nil {
			return err
		}
		sweep := time.Since(t)
		l["tracking.sweep_s"] = sweep.Seconds()
		l["tracking.sweep_alloc_mb"] = allocMB(r0, readRuntime())
		l["tracking.docs"] = float64(src.Len())
		l["tracking.doc_us"] = float64(sweep.Microseconds()) / float64(src.Len())
		if spec.Stored {
			l["resultstore.tracking_ckpt_s"] = l["experiments.tracking_s"] - sweep.Seconds()
		}
	}

	if spec.runs(experiments.ExpContent) {
		a, c := attemptedRe.FindStringSubmatch(report), classifiedRe.FindStringSubmatch(report)
		if a == nil || c == nil {
			return fmt.Errorf("content counts not found in the report")
		}
		attempted, _ := strconv.Atoi(a[1])
		classified, _ := strconv.Atoi(c[1])
		l["content.classified"] = float64(classified)
		if attempted > 0 {
			l["content.classified_frac"] = float64(classified) / float64(attempted)
		}
	}
	return nil
}

// traceSimnet builds the deanon experiment's network (the consensus at
// its seed offset, the run's client count) and times descriptor
// publication and one two-hour driven window on it.
func traceSimnet(ctx context.Context, cfg experiments.Config, study *experiments.Study, l map[string]float64) error {
	env := study.Env()
	doc, err := env.Consensus(consensusOffset[experiments.ExpDeanon])
	if err != nil {
		return err
	}
	geoDB, err := env.GeoDB()
	if err != nil {
		return err
	}
	netCfg := simnet.DefaultConfig(cfg.Seed)
	netCfg.Clients = cfg.Clients
	netCfg.Workers = cfg.Workers
	netCfg.SecretTable = studySecretTable(env, cfg.Seed)
	net, err := simnet.NewNetwork(doc, geoDB, netCfg)
	if err != nil {
		return err
	}
	pop := study.Population()
	r0, t := readRuntime(), time.Now()
	net.PublishAll(pop, doc.ValidAfter)
	l["simnet.publish_ms"] = millis(time.Since(t))
	r1 := readRuntime()
	l["simnet.publish_alloc_mb"] = allocMB(r0, r1)
	t = time.Now()
	stats, err := net.DriveWindow(ctx, pop, doc.ValidAfter, 2*time.Hour, nil)
	if err != nil {
		return err
	}
	l["simnet.drive_window_ms"] = millis(time.Since(t))
	l["simnet.drive_window_alloc_mb"] = allocMB(r1, readRuntime())
	l["simnet.requests"] = float64(stats.TotalRequests)
	return nil
}

// traceStore measures the result store a stored run left behind: the
// mean Get per stored key, and its size on disk.
func traceStore(store *resultstore.Store, dir string, l map[string]float64) error {
	entries, err := store.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("stored run left no entries in %s", dir)
	}
	t := time.Now()
	for _, e := range entries {
		if _, _, ok, err := store.Get(e.Key); err != nil || !ok {
			return fmt.Errorf("store get %s: ok=%v err=%v", e.Key.Experiment, ok, err)
		}
	}
	l["resultstore.get_ms"] = millis(time.Since(t)) / float64(len(entries))
	mb, objects, err := dirUsage(dir, "objects")
	if err != nil {
		return err
	}
	l["resultstore.disk_mb"] = mb
	l["resultstore.objects"] = float64(objects)
	return nil
}

// minReps is how many full repetitions a study run makes at least.
const minReps = 3

// runStudyWorkload runs fresh-process repetitions for the run's seconds
// (at least minReps) and reports their medians, or, traced, one plain
// and one traced repetition whose digests must agree.
func runStudyWorkload(o options, w workload) (*result, error) {
	spec := w.study
	req := childRequest{Spec: spec, Seed: o.seed, Workdir: o.workdir}
	want, known := committedDigest(o.workload, o.seed)
	failed := 0
	check := func(rep *studyRep, ref string) {
		if rep.Digest != ref {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: report digest %s, want %s\n", o.workload, o.seed, rep.Digest, ref)
			failed++
		}
	}

	if o.trace {
		plain, err := spawnRep(req)
		if err != nil {
			return nil, err
		}
		req.Trace = true
		traced, err := spawnRep(req)
		if err != nil {
			return nil, err
		}
		if !known {
			want = plain.Digest
		}
		check(plain, want)
		check(traced, want)
		attempted := 2
		if w.probeServing {
			sr, err := setUpServe(o)
			if err != nil {
				return nil, err
			}
			err = sr.probe(traced.Layers)
			sr.close()
			if err != nil {
				return nil, err
			}
			attempted += sr.attempted
			failed += sr.failed
		}
		return newResult(true, attempted, failed, traced.Layers)
	}

	var reps []*studyRep
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	// Start another repetition while one of average length would still
	// end within the budget.
	for len(reps) < minReps || time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= budget {
		rep, err := spawnRep(req)
		if err != nil {
			return nil, err
		}
		if !known {
			want, known = rep.Digest, true
		}
		check(rep, want)
		reps = append(reps, rep)
	}
	var setup, wall, cpu, alloc, rss []float64
	for len(reps)+len(setup) < minSetups {
		rep, err := spawnRep(childRequest{Spec: spec, Seed: o.seed, Workdir: o.workdir, SetupOnly: true})
		if err != nil {
			return nil, err
		}
		setup = append(setup, rep.SetupS)
	}
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		alloc = append(alloc, r.AllocMB)
		rss = append(rss, r.PeakRSSMB)
	}
	return newResult(false, len(reps), failed, map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": median(rss),
	})
}

// removeAll deletes a scratch directory, reporting (not failing on)
// errors: a leftover scratch store never changes a result.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

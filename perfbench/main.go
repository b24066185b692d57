// Command perfbench is the repository's benchmark. It runs one named
// workload for one seed, checks every output against an independent
// expectation, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-scale --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics (the study as a
// user sees it). With --trace 1 a separate traced run
// carries the per-layer metrics: the benchmark times calls into each
// layer's public functions from outside, so the program itself holds no
// tracing code. BENCHMARK.json at the repository root declares the
// metrics; interactions.json maps each per-layer metric to the
// end-to-end metric and workload it should move.
//
// Study repetitions run in fresh child processes (the same binary,
// re-executed with a request in the PERFBENCH_CHILD environment
// variable), so peak RSS is a fresh process's and no repetition warms
// the next.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metricDecl declares one metric the benchmark emits.
type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics of every --trace 0 run, on every workload:
// the cost of one RunStudy, as the median over fresh-process
// repetitions.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of every --trace 1 run, on every workload. A
// layer the workload does not exercise reads 0: it did no work.
var perLayer = []metricDecl{
	{"hspop.generate_s", "s"},
	{"darknet.fabric_s", "s"},
	{"relaynet.sims_s", "s"},
	{"experiments.collection_s", "s"},
	{"experiments.scan_s", "s"},
	{"experiments.content_s", "s"},
	{"experiments.prefix-audit_s", "s"},
	{"experiments.popularity_s", "s"},
	{"experiments.deanon_s", "s"},
	{"experiments.service-deanon_s", "s"},
	{"experiments.tracking_s", "s"},
	{"simnet.publish_ms", "ms"},
	{"simnet.publish_alloc_mb", "MB"},
	{"simnet.drive_window_ms", "ms"},
	{"simnet.drive_window_alloc_mb", "MB"},
	{"simnet.requests", "count"},
	{"trawl.harvest_s", "s"},
	{"trawl.step_ms", "ms"},
	{"trawl.addresses", "count"},
	{"popularity.resolve_ms", "ms"},
	{"popularity.resolve_alloc_mb", "MB"},
	{"popularity.unique_ids", "count"},
	{"popularity.resolved_ids", "count"},
	{"content.classified", "count"},
	{"content.classified_frac", "frac"},
	{"tracking.sweep_s", "s"},
	{"tracking.sweep_alloc_mb", "MB"},
	{"tracking.docs", "count"},
	{"tracking.doc_us", "us"},
	{"resultstore.tracking_ckpt_s", "s"},
	{"resultstore.get_ms", "ms"},
	{"resultstore.disk_mb", "MB"},
	{"resultstore.objects", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"resultstore.handler_p50_us", "us"},
	{"resultstore.handler_p99_us", "us"},
	{"jobs.submit_us", "us"},
	{"jobs.turnaround_ms", "ms"},
	{"serve.read_p50_ms.mid", "ms"},
	{"serve.read_p99_ms.low", "ms"},
	{"serve.read_p99_ms.mid", "ms"},
	{"serve.read_p99_ms.high", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.max_ok_rps", "1/s"},
	{"serve.not_modified_frac", "frac"},
	{"serve.shed", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.invalid_steps", "count"},
	{"trace.overhead_frac", "frac"},
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// why is the one-line reason the workload exists.
	why   string
	study studySpec
	// probeServing makes a traced study run also probe the serving
	// layers (see serveRun.probe) on a smoke store of its seed.
	probeServing bool
}

var workloads = []workload{
	{
		name:  "paper-scale",
		why:   "full paper landscape via the hsstudy path: population, scan, content, deanon and the 12-step trawl (the critical path) do real work; tracking does almost none",
		study: studySpec{Preset: "paper-scale"},
	},
	{
		name: "long-axis",
		why:  "job-plane path on paper-scale-x100 cut to 8 trawl steps and 240 days: per-window kernels, checkpoints, store writes dominate; traced runs also probe hsserve",
		study: studySpec{
			Preset:       "paper-scale-x100",
			Experiments:  []string{"collection", "popularity", "tracking"},
			TrawlSteps:   8,
			TrackingDays: 240,
			Stored:       true,
		},
		probeServing: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	hsserve  string
	workdir  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every declared metric from values: end-to-end
// metrics must all be measured, per-layer ones default to 0 (the layer
// did no work on this workload).
func newResult(trace bool, attempted, failed int, values map[string]float64) (*result, error) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	declared := map[string]bool{}
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		declared[d.name] = true
		v, ok := values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	res.Correct = failed == 0 && attempted > 0
	return res, nil
}

func run(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	return runStudyWorkload(o, w)
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	var o options
	var traceN, genDigests int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-scale or long-axis")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.hsserve, "hsserve", "", "path to a built cmd/hsserve binary (long-axis traced runs)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores")
	flag.IntVar(&genDigests, "gen-digests", 0, "print the report digest table for seeds [0,N) of every workload and exit")
	flag.Parse()
	o.trace = traceN == 1

	if genDigests > 0 {
		if err := printDigestTable(o, genDigests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d trace=%v GOMAXPROCS=%d\n", o.workload, o.seed, o.trace, runtime.GOMAXPROCS(0))
	fmt.Println(string(out))
}

// Command hsstudy runs the measurement study end-to-end: it generates a
// calibrated synthetic hidden-service landscape for a scenario preset
// and regenerates the paper's tables and figures through the experiment
// registry. Every experiment resolves by name; dependencies (the content
// crawl feeds on the scan) run automatically and shared substrates build
// once.
//
// Results are typed report documents: -format selects the encoding
// (text is byte-identical to the historical study output), -out
// persists every produced document into a content-addressed result
// store (servable with hsserve), and -cache consults that store first —
// experiments whose documents are already persisted under the same
// scenario, seed, parameters and code version are served from disk
// without executing.
//
// Crash safety: -checkpoint-every N snapshots the long-running
// pipelines into the -out store every N simulation windows, and -resume
// folds a killed run forward from its latest valid snapshot; the
// resumed output is byte-identical to an uninterrupted run. Snapshots
// are removed when the study completes.
//
// Every study streams its time axis: the tracking sweep folds consensus
// windows through a small sliding ring re-derived from the seed, and the
// trawl folds request logs into per-descriptor-ID counts as they arrive,
// so peak live heap does not grow with the window count.
//
// Store hygiene: -gc (with -out) sweeps orphaned objects — documents no
// longer reachable from any key or index entry — and exits.
//
// Usage:
//
//	hsstudy -list
//	hsstudy -gc -out DIR
//	hsstudy [-scenario NAME] [-seed N] [-experiment NAME[,NAME...]]
//	        [-format text|json|md|csv] [-out DIR [-cache]]
//	        [-checkpoint-every N] [-resume]
//	        [-cpuprofile FILE] [-memprofile FILE] [overrides]
//
// Profiling: -cpuprofile captures the whole study run, -memprofile the
// retained heap at exit (after a final GC); both files feed straight
// into go tool pprof. Every CPU sample carries an experiment=NAME label,
// so go tool pprof -tagfocus experiment=popularity keeps one
// experiment's samples. See README.md "Profiling" for the workflow.
//
// The two lists below are rendered from the registry and the scenario
// presets; TestDocCommentMatchesRegistry fails if they drift.
//
// Experiments: collection, scan, content, prefix-audit, popularity,
// deanon, service-deanon, tracking.
//
// Scenarios: laptop, smoke, paper-scale, stress, paper-scale-x100,
// botnet-heavy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"torhs/internal/cli"
	"torhs/internal/experiments"
	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

func main() { cli.Main("hsstudy", run) }

func run(args []string, w io.Writer) error {
	reg := experiments.Paper()
	fs := flag.NewFlagSet("hsstudy", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list registered experiments and scenario presets, then exit")
		preset   = fs.String("scenario", scenario.Laptop, "scenario preset: "+strings.Join(scenario.Names(), "|"))
		seed     = fs.Int64("seed", 42, "random seed for the whole study")
		workers  = fs.Int("workers", 0, "worker goroutines per parallel stage (0 = one per CPU; stages can overlap, so peak concurrency may exceed this); output is identical at every value")
		selector = fs.String("experiment", "all", "comma-separated experiments to run (all = every one): "+strings.Join(reg.Names(), "|"))
		format   = fs.String("format", report.FormatText, "output encoding: "+strings.Join(report.Formats(), "|"))
		outDir   = fs.String("out", "", "persist result documents into the content-addressed store at this directory")
		useCache = fs.Bool("cache", false, "serve experiments already persisted in the -out store instead of executing them")
		ckptN    = fs.Int("checkpoint-every", 0, "snapshot long-running pipelines into the -out store every N windows (0 = off)")
		resume   = fs.Bool("resume", false, "fold pipelines forward from the latest valid checkpoint in the -out store")
		gcRun    = fs.Bool("gc", false, "sweep orphaned objects from the -out store, print the stats, and exit")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the study to this file (inspect with go tool pprof; -tagfocus experiment=NAME keeps one experiment's samples)")
		memProfile = fs.String("memprofile", "", "write an end-of-study heap profile to this file (inspect with go tool pprof)")

		// Overrides: applied on top of the scenario preset only when set
		// explicitly on the command line.
		scale      = fs.Float64("scale", 0, "override preset: population scale (1.0 = the paper's 39,824 services)")
		clients    = fs.Int("clients", 0, "override preset: simulated client population")
		trawlIPs   = fs.Int("trawl-ips", 0, "override preset: trawling fleet IP addresses")
		trawlSteps = fs.Int("trawl-steps", 0, "override preset: trawling rotation steps")
		relays     = fs.Int("relays", 0, "override preset: honest relay network size")
	)
	if stop, err := cli.Parse(fs, args); stop {
		return err
	}

	if *list {
		printList(w, reg)
		return nil
	}

	spec, err := scenario.Lookup(*preset)
	if err != nil {
		return err
	}
	cfg := experiments.ConfigFromSpec(spec, *seed)
	cfg.Workers = *workers
	overridden := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = *scale
		case "clients":
			cfg.Clients = *clients
		case "trawl-ips":
			cfg.TrawlIPs = *trawlIPs
		case "trawl-steps":
			cfg.TrawlSteps = *trawlSteps
		case "relays":
			cfg.Relays = *relays
		case "seed":
			// Not an override of the preset's shape, but it changes
			// output bytes just like one — see scenarioLabel below.
		default:
			return
		}
		overridden = true
	})
	// A run whose output-determining flags were set explicitly is no
	// longer the preset's canonical result: bucket its store entries
	// under "custom" so it can never hijack the preset's serving slot
	// (cache keys hash the full parameters either way).
	scenarioLabel := *preset
	if overridden {
		scenarioLabel = "custom"
	}

	if *useCache && *outDir == "" {
		return errors.New("-cache requires -out DIR (the store to consult)")
	}
	if *ckptN < 0 {
		return fmt.Errorf("-checkpoint-every %d negative", *ckptN)
	}
	if (*ckptN > 0 || *resume) && *outDir == "" {
		return errors.New("-checkpoint-every/-resume require -out DIR (the store holding the snapshots)")
	}
	var store *resultstore.Store
	if *outDir != "" {
		if store, err = resultstore.Open(*outDir); err != nil {
			return err
		}
	}
	if *gcRun {
		if store == nil {
			return errors.New("-gc requires -out DIR (the store to sweep)")
		}
		st, err := store.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "gc: %d objects, %d reachable, %d orphans removed, %d bytes freed\n",
			st.Objects, st.Reachable, st.Removed, st.BytesFreed)
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		// Written on the way out so the profile captures the study's
		// retained heap, not the flag-parsing prologue's.
		defer func() {
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hsstudy: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM cancels the run context: the kernels flush their
	// latest window checkpoint into the -out store (when the checkpoint
	// plane is armed) and the study returns context.Canceled, which maps
	// to the shell's interrupt exit code 130 below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := reg.RunStudy(ctx, env, experiments.RunOptions{
		Names:           parseSelector(*selector),
		Format:          *format,
		Scenario:        scenarioLabel,
		Store:           store,
		UseCache:        *useCache,
		CheckpointEvery: *ckptN,
		Resume:          *resume,
	}, w)
	if errors.Is(err, context.Canceled) {
		if *ckptN > 0 {
			fmt.Fprintln(os.Stderr, "hsstudy: interrupted; checkpoints flushed — resume with the same flags plus -resume")
		} else {
			fmt.Fprintln(os.Stderr, "hsstudy: interrupted")
		}
		return &cli.ExitError{Code: 130, Err: err}
	}
	if err != nil {
		return err
	}
	if *useCache {
		// Stdout stays pure encoded output; the scheduling report goes
		// to stderr so cached and fresh runs emit identical bytes.
		fmt.Fprintf(os.Stderr, "hsstudy: %d experiment(s) served from cache, %d executed\n",
			len(res.Cached), len(res.Executed))
	}
	return nil
}

// parseSelector splits the -experiment value; nil means every
// registered experiment.
func parseSelector(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "all" {
			return nil
		}
		names = append(names, part)
	}
	return names
}

// printList renders the registry and the scenario presets. The section
// bodies are two-space indented so scripts (the CI smoke job) can carve
// out a section with awk.
func printList(w io.Writer, reg *experiments.Registry) {
	fmt.Fprintln(w, "experiments (in paper order):")
	for _, name := range reg.Names() {
		exp, _ := reg.Get(name)
		needs := "-"
		if n := exp.Needs(); len(n) > 0 {
			needs = strings.Join(n, ",")
		}
		fmt.Fprintf(w, "  %-15s needs:%-10s %s\n", name, needs, reg.Describe(name))
	}
	fmt.Fprintln(w, "scenarios:")
	for _, sp := range scenario.Presets() {
		fmt.Fprintf(w, "  %-15s scale=%-5.2f clients=%-6d relays=%-5d %s\n",
			sp.Name, sp.Scale, sp.Clients, sp.Relays, sp.Description)
	}
}

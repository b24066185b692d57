// Command trackscan runs the Section VII tracking detector. In demo mode
// (default) it builds the Silk Road scenario — a consensus history with
// three planted tracking episodes — analyses it, and prints the report.
// With -archive it instead loads consensus documents from a directory
// (one file per consensus, in the codec format of internal/consensus) and
// analyses an arbitrary target onion address.
//
// Usage:
//
//	trackscan [-seed N] [-scenario NAME] [-save DIR]
//	trackscan -archive DIR -target ONIONADDR [-from RFC3339 -to RFC3339]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"torhs/internal/cli"
	"torhs/internal/consensus"
	"torhs/internal/core/tracking"
	"torhs/internal/experiments"
	"torhs/internal/onion"
	"torhs/internal/report"
	"torhs/internal/scenario"
)

func main() { cli.Main("trackscan", run) }

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trackscan", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 42, "random seed (demo mode)")
		preset  = fs.String("scenario", scenario.Laptop, "scenario preset shaping the demo history window: "+strings.Join(scenario.Names(), "|"))
		saveDir = fs.String("save", "", "save the demo consensus history to this directory")
		archive = fs.String("archive", "", "load consensus documents from this directory instead of demo mode")
		target  = fs.String("target", "", "target onion address (archive mode)")
		fromStr = fs.String("from", "", "analysis window start, RFC3339 (archive mode; default: full archive)")
		toStr   = fs.String("to", "", "analysis window end, RFC3339 (archive mode)")
		csvPath = fs.String("csv", "", "also write the per-relay analysis as CSV to this file")
	)
	if stop, err := cli.Parse(fs, args); stop {
		return err
	}

	if *archive != "" {
		return runArchive(w, *archive, *target, *fromStr, *toStr, *csvPath)
	}
	spec, err := scenario.Lookup(*preset)
	if err != nil {
		return err
	}
	scCfg := tracking.DefaultScenarioConfig(*seed)
	scCfg.Days = spec.TrackingWindow(scCfg.Days)
	return runDemo(w, scCfg, *saveDir, *csvPath)
}

// writeReport prints the Section VII tracking section.
func writeReport(w io.Writer, sc *tracking.Scenario, rep *tracking.Report) error {
	s := experiments.TrackingSection(&experiments.TrackingResult{Scenario: sc, Report: rep})
	return report.EncodeText(w, report.New(s.ID, s))
}

func writeCSV(path string, rep *tracking.Report) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDemo builds the scenario history and analyses its whole window.
func runDemo(w io.Writer, scCfg tracking.ScenarioConfig, saveDir, csvPath string) error {
	sc, err := tracking.BuildScenario(scCfg)
	if err != nil {
		return err
	}
	an, err := tracking.NewAnalyzer(tracking.DefaultConfig())
	if err != nil {
		return err
	}
	rep, err := an.Analyze(context.Background(), tracking.Docs(sc.History.Range(sc.Start, sc.End)), sc.Target)
	if err != nil {
		return err
	}
	if err := writeReport(w, sc, rep); err != nil {
		return err
	}

	if saveDir != "" {
		if err := saveHistory(saveDir, sc.History); err != nil {
			return err
		}
		fmt.Fprintf(w, "history saved to %s (target %s)\n", saveDir, sc.TargetAddress.String())
	}
	return writeCSV(csvPath, rep)
}

func saveHistory(dir string, h *consensus.History) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, doc := range h.All() {
		path := filepath.Join(dir, fmt.Sprintf("consensus-%04d.txt", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := doc.Marshal(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func runArchive(w io.Writer, dir, target, fromStr, toStr, csvPath string) error {
	if target == "" {
		return fmt.Errorf("archive mode requires -target")
	}
	_, permID, err := onion.ParseAddress(target)
	if err != nil {
		return fmt.Errorf("parse target: %w", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	h := consensus.NewHistory()
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		doc, err := consensus.Unmarshal(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parse %s: %w", name, err)
		}
		if err := h.Append(doc); err != nil {
			return fmt.Errorf("append %s: %w", name, err)
		}
	}
	if h.Len() == 0 {
		return fmt.Errorf("no consensus documents in %s", dir)
	}

	from := h.All()[0].ValidAfter
	to := h.All()[h.Len()-1].ValidAfter
	if fromStr != "" {
		if from, err = time.Parse(time.RFC3339, fromStr); err != nil {
			return fmt.Errorf("parse -from: %w", err)
		}
	}
	if toStr != "" {
		if to, err = time.Parse(time.RFC3339, toStr); err != nil {
			return fmt.Errorf("parse -to: %w", err)
		}
	}

	docs := h.Range(from, to)
	if len(docs) == 0 {
		return fmt.Errorf("no consensus documents in [%v, %v] (archive covers %v .. %v)",
			from, to, h.All()[0].ValidAfter, h.All()[h.Len()-1].ValidAfter)
	}
	an, err := tracking.NewAnalyzer(tracking.DefaultConfig())
	if err != nil {
		return err
	}
	rep, err := an.Analyze(context.Background(), tracking.Docs(docs), permID)
	if err != nil {
		return err
	}
	sc := &tracking.Scenario{Target: permID, TargetAddress: onion.AddressFromID(permID), History: h}
	if err := writeReport(w, sc, rep); err != nil {
		return err
	}
	return writeCSV(csvPath, rep)
}

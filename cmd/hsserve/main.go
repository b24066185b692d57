// Command hsserve exposes a result store over HTTP — the serving front
// end of the study pipeline — and a study-execution plane that runs
// experiments into that store on demand. Populate a store with
// `hsstudy -out DIR` (or let POST /studies do it), then point hsserve
// at it; every stored artefact is served in any report encoding with
// content-hash ETags, so fleets of clients and caches revalidate
// cheaply while the store stays the single source of truth.
//
// Routes:
//
//	GET  /healthz                                   liveness probe
//	GET  /readyz                                    readiness probe (503 while draining)
//	GET  /experiments                               JSON index of stored artefacts
//	GET  /report/{scenario}/{experiment}?format=F   encoded document (text|json|md|csv)
//	POST /studies                                   submit {scenario, seed, experiments}
//	GET  /studies                                   job index, newest first
//	GET  /studies/{id}                              job status
//	GET  /studies/{id}/events                       SSE progress stream
//
// Submissions dedupe on the store's cache keys: a POST matching a job
// already queued or running returns that job (200) instead of queuing
// a duplicate. When the bounded queue is full the submission is shed
// with 429 and Retry-After; jobs run under a per-job deadline.
//
// On SIGTERM/SIGINT the server flips /readyz to 503, stops accepting
// jobs, cancels in-flight studies — which flush their window
// checkpoints, so re-POSTing the same study after restart resumes
// byte-identically — drains within a bounded grace period, and exits.
// The listener keeps answering, with /readyz at 503, for at least the
// one second that /readyz advertises in Retry-After, so readiness
// probes see the flip even when the in-flight studies stop at once.
//
// A pruned or corrupt object behind a live index entry degrades to 503
// with Retry-After (the bad entry is quarantined, so the next request
// sees 404 until a study run re-publishes the slot).
//
// Usage:
//
//	hsserve -store DIR [-addr :8343] [-queue 8] [-job-timeout 10m] [-grace 20s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"torhs/internal/cli"
	"torhs/internal/jobs"
	"torhs/internal/resultstore"
)

// drainHold is the least time the listener keeps answering after a
// drain begins: the Retry-After that a draining /readyz advertises, so
// a probe that honours it sees the 503 at least once.
const drainHold = time.Second

func main() { cli.Main("hsserve", run) }

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hsserve", flag.ContinueOnError)
	var (
		storeDir   = fs.String("store", "", "result store directory (populate with hsstudy -out or POST /studies)")
		addr       = fs.String("addr", ":8343", "listen address")
		queue      = fs.Int("queue", 8, "study job queue depth; beyond it POST /studies sheds with 429")
		jobTimeout = fs.Duration("job-timeout", 10*time.Minute, "per-job deadline (0 disables)")
		grace      = fs.Duration("grace", 20*time.Second, "shutdown grace period for draining jobs and connections")
	)
	if stop, err := cli.Parse(fs, args); stop {
		return err
	}
	if *storeDir == "" {
		return errors.New("-store DIR is required")
	}
	if info, err := os.Stat(*storeDir); err != nil || !info.IsDir() {
		return fmt.Errorf("store directory %q not found (populate it with hsstudy -out)", *storeDir)
	}
	store, err := resultstore.Open(*storeDir)
	if err != nil {
		return err
	}
	entries, err := store.List()
	if err != nil {
		return err
	}

	mgr := jobs.NewManager(jobs.Options{
		Store:      store,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
	})
	mgr.Start(context.Background())

	storeHandler := resultstore.NewServer(store).Handler()
	mux := http.NewServeMux()
	jobs.NewAPI(mgr).Register(mux)
	// Readiness flips to 503 the moment a drain begins, before the
	// listener closes, so load balancers stop routing while in-flight
	// work finishes; otherwise readiness is the store's.
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		if mgr.Draining() {
			rw.Header().Set("Retry-After", strconv.Itoa(int(drainHold.Seconds())))
			http.Error(rw, "draining", http.StatusServiceUnavailable)
			return
		}
		storeHandler.ServeHTTP(rw, r)
	})
	mux.Handle("/", storeHandler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hsserve: serving %d stored artefact(s) from %s on %s\n",
		len(entries), store.Dir(), ln.Addr())
	srv := &http.Server{
		Handler: mux,
		// Responses are small immutable documents (SSE streams aside);
		// header/idle timeouts keep slow-header clients from pinning
		// connections open forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// A second signal during the drain kills the process the default way.
	stopSignals()
	fmt.Fprintln(w, "hsserve: shutdown signal received; draining")

	// Drain order matters: readiness flips and intake stops first (both
	// inside mgr.Drain, while the listener still answers probes), then
	// in-flight studies are cancelled and checkpoint themselves, then
	// the HTTP server closes — by which point every SSE stream has
	// ended, because every job is terminal. The listener stays up for
	// at least drainHold after readiness flips.
	drainStart := time.Now()
	drainErr := mgr.Drain(*grace)
	time.Sleep(drainHold - time.Since(drainStart))
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	<-serveErr // always http.ErrServerClosed after Shutdown
	if drainErr != nil {
		return drainErr
	}
	if shutErr != nil {
		return shutErr
	}
	fmt.Fprintln(w, "hsserve: drained; exiting")
	return nil
}

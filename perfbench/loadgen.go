package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/jobs"
	"torhs/internal/scenario"
)

// The request mix: report reads across every experiment and format
// (half of them conditional on the ETag), the /experiments listing, and
// study submissions for keys the store already holds, which become
// cache-hit jobs or dedupe onto one in flight.
const (
	kindRead = iota
	kindListing
	kindSubmit
)

// submitExperiments are the single-experiment studies the mix submits.
// Fewer keys than the job queue is deep, so dedupe keeps at most one
// job per key queued and a submission is never shed by design.
var submitExperiments = []string{
	experiments.ExpPrefixAudit, experiments.ExpScan, experiments.ExpPopularity, experiments.ExpTracking,
}

type mixReq struct {
	kind, exp, format int
	cond              bool
}

// mixFor draws n requests of the mix from the seed's stream-th stream.
func mixFor(seed int64, stream uint64, n int) []mixReq {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	out := make([]mixReq, n)
	for i := range out {
		switch r := rng.IntN(100); {
		case r < 5:
			out[i] = mixReq{kind: kindSubmit, exp: rng.IntN(len(submitExperiments))}
		case r < 10:
			out[i] = mixReq{kind: kindListing}
		default:
			out[i] = mixReq{kind: kindRead, exp: rng.IntN(8), format: rng.IntN(4), cond: rng.IntN(2) == 0}
		}
	}
	return out
}

// conn is one keep-alive client connection plus the expectations its
// responses are checked against.
type conn struct {
	hc   *http.Client
	base string
	exp  *expectation
	seed int64
}

func newConn(base string, exp *expectation, seed int64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base, exp: exp, seed: seed}
}

func (c *conn) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

func (c *conn) request(r mixReq) *http.Request {
	var req *http.Request
	switch r.kind {
	case kindRead:
		req, _ = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/report/%s/%s?format=%s",
			c.base, scenario.Smoke, c.exp.experiments[r.exp], c.exp.formats[r.format]), nil)
		if r.cond {
			req.Header.Set("If-None-Match", c.exp.etags[r.exp][r.format])
		}
	case kindListing:
		req, _ = http.NewRequest(http.MethodGet, c.base+"/experiments", nil)
	default:
		body, _ := json.Marshal(jobs.SubmitRequest{
			Scenario: scenario.Smoke, Seed: c.seed, Experiments: []string{submitExperiments[r.exp]}})
		req, _ = http.NewRequest(http.MethodPost, c.base+"/studies", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// do sends one request and checks its response.
func (c *conn) do(r mixReq) (status int, err error) {
	resp, err := c.hc.Do(c.request(r))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, c.check(r, resp.StatusCode, resp.Header, body)
}

// check verifies one response against the store-derived expectation:
// reads return the exact encoding of the stored document (or 304 when
// conditional on its ETag), the listing names every stored document by
// its content hash, and submissions are accepted or deduped, never shed.
func (c *conn) check(r mixReq, status int, h http.Header, body []byte) error {
	switch r.kind {
	case kindRead:
		name := c.exp.experiments[r.exp] + "?format=" + c.exp.formats[r.format]
		etag := c.exp.etags[r.exp][r.format]
		if r.cond {
			if status != http.StatusNotModified {
				return fmt.Errorf("conditional read %s: status %d, want 304", name, status)
			}
			return nil
		}
		if status != http.StatusOK {
			return fmt.Errorf("read %s: status %d", name, status)
		}
		if !bytes.Equal(body, c.exp.bodies[r.exp][r.format]) {
			return fmt.Errorf("read %s: body differs from the stored document's encoding", name)
		}
		if got := h.Get("ETag"); got == "" || got != etag {
			return fmt.Errorf("read %s: ETag %q, want %q", name, got, etag)
		}
	case kindListing:
		if status != http.StatusOK {
			return fmt.Errorf("listing: status %d", status)
		}
		var rows []struct {
			Scenario, Experiment, ContentHash string
		}
		if err := json.Unmarshal(body, &rows); err != nil {
			return fmt.Errorf("listing: %w", err)
		}
		seen := 0
		for _, row := range rows {
			if row.Scenario != scenario.Smoke {
				continue
			}
			if row.ContentHash != c.exp.hashes[row.Experiment] {
				return fmt.Errorf("listing: %s content hash %s, want %s", row.Experiment, row.ContentHash, c.exp.hashes[row.Experiment])
			}
			seen++
		}
		if seen != len(c.exp.hashes) {
			return fmt.Errorf("listing: %d stored documents, want %d", seen, len(c.exp.hashes))
		}
	default:
		if status != http.StatusOK && status != http.StatusAccepted {
			return fmt.Errorf("submit %s: status %d", submitExperiments[r.exp], status)
		}
		var st jobs.SubmitResponse
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			return fmt.Errorf("submit %s: bad response %q", submitExperiments[r.exp], body)
		}
	}
	return nil
}

// stepStats are one open-loop step's measurements, over the requests
// due after its warm-up.
type stepStats struct {
	// reads / submits are latencies in ms from each request's due time.
	reads, submits []float64
	// readWindows groups the read latencies by the second their requests
	// were due in.
	readWindows [][]float64
	// late is how late the generator made each request available, in
	// ms: the scheduler's own lag, not the server's backlog.
	late                                   []float64
	sent, failed, conditional, notModified int
	// shed counts 429 and 503 responses (also counted as failed).
	shed int
	// drain is the time from the last due request to the last response:
	// long when the backlog grew.
	drain time.Duration
}

type outcome struct {
	status int
	err    error
	done   time.Time
}

// openLoop offers the mix at rate for warm+dur over the connections.
// Sends follow the schedule, never completions: a scheduler releases
// request i at its due time into a queue sized to the whole schedule,
// and whichever connection is free takes the next one. A request waiting
// for a busy connection is the server's backlog, and its latency is
// counted from its due time.
func openLoop(conns []*conn, seed int64, stream uint64, rate float64, warm, dur time.Duration) stepStats {
	n := int(rate * (warm + dur).Seconds())
	reqs := mixFor(seed, stream, n)
	queue := make(chan int, n)
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				status, err := c.do(reqs[i])
				outs[i] = outcome{status: status, err: err, done: time.Now()}
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	dues := make([]time.Time, n)
	late := make([]float64, n)
	for i := range n {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = millis(time.Since(due))
		dues[i] = due
		queue <- i
	}
	close(queue)
	wg.Wait()

	var st stepStats
	measureFrom := start.Add(warm)
	for i, o := range outs {
		st.drain = max(st.drain, o.done.Sub(dues[n-1]))
		if dues[i].Before(measureFrom) {
			continue
		}
		st.sent++
		st.late = append(st.late, late[i])
		if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
			st.shed++
		}
		if o.err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", o.err)
			continue
		}
		lat := millis(o.done.Sub(dues[i]))
		switch r := reqs[i]; r.kind {
		case kindRead:
			st.reads = append(st.reads, lat)
			w := int(dues[i].Sub(measureFrom) / time.Second)
			for len(st.readWindows) <= w {
				st.readWindows = append(st.readWindows, nil)
			}
			st.readWindows[w] = append(st.readWindows[w], lat)
			if r.cond {
				st.conditional++
				if o.status == http.StatusNotModified {
					st.notModified++
				}
			}
		case kindSubmit:
			st.submits = append(st.submits, lat)
		}
	}
	return st
}

// readP99 is the step's read tail: the median over its one-second
// windows of each window's p99. A burst of interference from outside
// the benchmark spoils one window, not the figure.
func (st *stepStats) readP99() float64 {
	var p99s []float64
	for _, w := range st.readWindows {
		if len(w) >= 100 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(st.reads, 0.99)
	}
	return median(p99s)
}

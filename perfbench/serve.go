package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/jobs"
	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// Serving probe parameters.
const (
	// latencyLimit is the read p99 a ladder rate must meet to count
	// towards serve.max_ok_rps.
	latencyLimit = 10 * time.Millisecond
	// lateLimit is how late (p99) the generator may release requests
	// before a step is marked invalid. Latencies still count from the
	// due time, so a late generator only makes a step look slower, never
	// faster. Go's timers wake sub-millisecond sleeps about a millisecond
	// late, and a shared machine adds scheduling jitter on top.
	lateLimit = 5 * time.Millisecond
	// handlerRequests is how many requests of the mix the in-process
	// handler probe serves.
	handlerRequests = 10000
)

// ladder is the open-loop rate ladder, requests per second.
var ladder = []struct {
	name string
	rate float64
}{{"low", 1000}, {"mid", 2000}, {"high", 4000}}

// populate runs the smoke study for seed into a store at dir and
// returns the sha256 of its text report.
func populate(dir string, seed int64) (string, error) {
	store, err := resultstore.Open(dir)
	if err != nil {
		return "", err
	}
	env, err := experiments.NewEnv(experiments.ConfigFromSpec(scenario.MustLookup(scenario.Smoke), seed))
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, err := experiments.Paper().RunStudy(context.Background(), env,
		experiments.RunOptions{Scenario: scenario.Smoke, Store: store}, &out); err != nil {
		return "", err
	}
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// server is a running hsserve subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer starts hsserve over a store and waits until /readyz
// answers 200.
func startServer(bin, storeDir string) (*server, error) {
	cmd := exec.Command(bin, "-store", storeDir, "-addr", "127.0.0.1:0", "-grace", "5s")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, r)
		s.done <- cmd.Wait()
	}()
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("hsserve start: %w", err)
	}
	// "hsserve: serving N stored artefact(s) from DIR on ADDR"
	fields := strings.Fields(line)
	s.base = "http://" + fields[len(fields)-1]
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hsserve at %s not ready after 30s", s.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM (hsserve drains and exits) and waits for the
// process, killing it if the drain overruns.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// expectation is what the benchmark expects the server to say, derived
// from the store directly rather than from the server.
type expectation struct {
	experiments []string
	formats     []string
	// bodies[exp][format] is the encoding of the stored document.
	bodies [][][]byte
	// etags[exp][format] is the server's ETag for it, learned from the
	// first verified response.
	etags [][]string
	// hashes maps experiment → content hash of its stored document.
	hashes map[string]string
}

func expect(store *resultstore.Store) (*expectation, error) {
	e := &expectation{
		experiments: experiments.Paper().Names(),
		formats:     report.Formats(),
		hashes:      map[string]string{},
	}
	for _, exp := range e.experiments {
		entry, err := store.Lookup(scenario.Smoke, exp)
		if err != nil || entry == nil {
			return nil, fmt.Errorf("stored %s/%s: entry=%v err=%v", scenario.Smoke, exp, entry, err)
		}
		doc, err := store.Document(entry)
		if err != nil {
			return nil, err
		}
		e.hashes[exp] = entry.ContentHash
		var bodies [][]byte
		for _, f := range e.formats {
			var buf bytes.Buffer
			if err := report.Encode(&buf, doc, f); err != nil {
				return nil, err
			}
			bodies = append(bodies, buf.Bytes())
		}
		e.bodies = append(e.bodies, bodies)
		e.etags = append(e.etags, make([]string, len(e.formats)))
	}
	return e, nil
}

// learnETags reads every report once, unconditionally, and records the
// server's ETag of each response whose body is the stored document's
// encoding; later responses must carry the same tag.
func learnETags(c *conn) (attempted, failed int) {
	for ei := range c.exp.experiments {
		for fi := range c.exp.formats {
			attempted++
			resp, err := c.hc.Do(c.request(mixReq{kind: kindRead, exp: ei, format: fi}))
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				failed++
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			c.exp.etags[ei][fi] = resp.Header.Get("ETag")
			if err == nil {
				err = c.check(mixReq{kind: kindRead, exp: ei, format: fi}, resp.StatusCode, resp.Header, body)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				failed++
			}
		}
	}
	return attempted, failed
}

// serveRun is a served smoke store under test, with the client side.
type serveRun struct {
	seed  int64
	srv   *server
	dir   string
	store *resultstore.Store
	exp   *expectation
	conns []*conn
	// attempted / failed count every checked operation so far.
	attempted, failed int
}

// setUpServe populates a fresh store with the smoke study, checks its
// report against the committed digest, starts hsserve over it, and
// learns its ETags.
func setUpServe(o options) (*serveRun, error) {
	if o.hsserve == "" {
		return nil, errors.New("serving needs -hsserve (a built cmd/hsserve)")
	}
	d, err := os.MkdirTemp(o.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	digest, err := populate(d, o.seed)
	if err != nil {
		removeAll(d)
		return nil, err
	}
	s, err := startServer(o.hsserve, d)
	if err != nil {
		removeAll(d)
		return nil, err
	}
	sr := &serveRun{seed: o.seed, srv: s, dir: d, attempted: 1}
	if want, known := committedDigest(smokeDigests, o.seed); known && digest != want {
		fmt.Fprintf(os.Stderr, "perfbench: smoke seed %d: report digest %s, want %s\n", o.seed, digest, want)
		sr.failed++
	}
	if sr.store, err = resultstore.Open(sr.dir); err == nil {
		sr.exp, err = expect(sr.store)
	}
	if err != nil {
		sr.close()
		return nil, err
	}
	sr.conns = make([]*conn, runtime.GOMAXPROCS(0))
	for i := range sr.conns {
		sr.conns[i] = newConn(sr.srv.base, sr.exp, o.seed)
	}
	n, f := learnETags(sr.conns[0])
	sr.attempted += n
	sr.failed += f
	return sr, nil
}

// close stops the server and removes its store.
func (sr *serveRun) close() {
	for _, c := range sr.conns {
		c.close()
	}
	sr.srv.stop()
	removeAll(sr.dir)
}

// probe measures the serving layers into l: the open-loop rate ladder
// against hsserve, the store's handler in process, and the job plane.
func (sr *serveRun) probe(l map[string]float64) error {
	const warm, stepDur = 500 * time.Millisecond, 3 * time.Second
	var submits, late []float64
	maxOK := 0.0
	conditional, notModified, invalid := 0, 0, 0
	for i, step := range ladder {
		st := openLoop(sr.conns, sr.seed, uint64(10+i), step.rate, warm, stepDur)
		sr.attempted += st.sent
		sr.failed += st.failed
		l["loadgen.sent"] += float64(st.sent)
		l["serve.shed"] += float64(st.shed)
		l["serve.read_p99_ms."+step.name] = st.readP99()
		if step.name == "mid" {
			l["serve.read_p50_ms.mid"] = quantile(st.reads, 0.5)
		}
		submits = append(submits, st.submits...)
		late = append(late, st.late...)
		conditional += st.conditional
		notModified += st.notModified
		valid := quantile(st.late, 0.99) <= millis(lateLimit)
		if !valid {
			invalid++
		}
		if valid && st.failed == 0 && st.readP99() <= millis(latencyLimit) && st.drain <= latencyLimit {
			maxOK = step.rate
		}
	}
	l["serve.submit_p99_ms"] = quantile(submits, 0.99)
	l["serve.max_ok_rps"] = maxOK
	l["loadgen.late_p99_ms"] = quantile(late, 0.99)
	l["loadgen.invalid_steps"] = float64(invalid)
	if conditional > 0 {
		l["serve.not_modified_frac"] = float64(notModified) / float64(conditional)
	}

	n, f := traceHandler(sr.exp, sr.store, sr.seed, l)
	sr.attempted += n
	sr.failed += f
	return traceJobs(sr.store, sr.srv.base, sr.seed, l)
}

// traceHandler times the store's HTTP handler in process, through a
// response recorder, over the read and listing part of the mix.
func traceHandler(exp *expectation, store *resultstore.Store, seed int64, l map[string]float64) (attempted, failed int) {
	h := resultstore.NewServer(store).Handler()
	c := newConn("", exp, seed)
	var lat []float64
	for _, r := range mixFor(seed, 20, handlerRequests) {
		if r.kind == kindSubmit {
			continue
		}
		req := c.request(r)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		attempted++
		if err := c.check(r, rec.Code, rec.Header(), rec.Body.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: in-process handler:", err)
			failed++
		}
	}
	l["resultstore.handler_p50_us"] = quantile(lat, 0.5)
	l["resultstore.handler_p99_us"] = quantile(lat, 0.99)
	return attempted, failed
}

// traceJobs times Manager.Submit on a dedupe key in process, and the
// server's turnaround of a cached study: POST until the job's event
// stream ends in a terminal state.
func traceJobs(store *resultstore.Store, base string, seed int64, l map[string]float64) error {
	m := jobs.NewManager(jobs.Options{Store: store})
	names := []string{experiments.ExpScan}
	if _, _, err := m.Submit(scenario.Smoke, seed, names); err != nil {
		return err
	}
	var submit []float64
	for i := 0; i < 5000; i++ {
		t := time.Now()
		_, deduped, err := m.Submit(scenario.Smoke, seed, names)
		d := time.Since(t)
		if err != nil || !deduped {
			return fmt.Errorf("dedupe submit: deduped=%v err=%v", deduped, err)
		}
		submit = append(submit, float64(d.Nanoseconds())/1e3)
	}
	l["jobs.submit_us"] = median(submit)

	body, err := json.Marshal(jobs.SubmitRequest{Scenario: scenario.Smoke, Seed: seed, Experiments: names})
	if err != nil {
		return err
	}
	var turnaround []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		resp, err := http.Post(base+"/studies", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var st jobs.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.ID == "" {
			return fmt.Errorf("submit: status %d err=%v", resp.StatusCode, err)
		}
		resp, err = http.Get(base + "/studies/" + st.ID + "/events")
		if err != nil {
			return err
		}
		events, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		turnaround = append(turnaround, millis(time.Since(t)))
		if !bytes.Contains(events, []byte(`"state":"done"`)) {
			return fmt.Errorf("job %s did not finish done: %s", st.ID, events)
		}
	}
	l["jobs.turnaround_ms"] = median(turnaround)
	return nil
}

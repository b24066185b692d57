package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/scenario"
)

func newTestAPI(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, opts)
	mux := http.NewServeMux()
	NewAPI(m).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, srv
}

func postStudy(t *testing.T, url string, req SubmitRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPSubmitStatusAndDedupe(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, srv := newTestAPI(t, Options{Run: blockingRun(started, release)})

	resp := postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 1,
		Experiments: []string{experiments.ExpScan}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.Deduped {
		t.Fatalf("submit response = %+v", sub)
	}
	<-started

	// The identical POST dedupes onto the running job with 200.
	resp = postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 1,
		Experiments: []string{experiments.ExpScan}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedupe POST status = %d, want 200", resp.StatusCode)
	}
	var dup SubmitResponse
	json.NewDecoder(resp.Body).Decode(&dup)
	resp.Body.Close()
	if !dup.Deduped || dup.ID != sub.ID {
		t.Fatalf("dedupe response = %+v, want deduped onto %s", dup, sub.ID)
	}

	// Status endpoint reflects the running job; unknown IDs 404.
	resp, err := http.Get(srv.URL + "/studies/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateRunning {
		t.Fatalf("status = %+v, want running", st)
	}
	if resp, _ = http.Get(srv.URL + "/studies/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestAPI(t, Options{Run: blockingRun(nil, nil)})
	for _, body := range []string{
		`{`,                      // malformed JSON
		`{}`,                     // missing scenario
		`{"scenario":"no-such"}`, // unknown scenario
		`{"scenario":"smoke","experiments":["no-such"]}`, // unknown experiment
	} {
		resp, err := http.Post(srv.URL+"/studies", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPSubmitDecoding pins POST /studies decoding: a misspelled
// field, data after the object and an oversized body are refused, and
// naming an experiment twice dedupes onto the job that names it once.
func TestHTTPSubmitDecoding(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestAPI(t, Options{Run: blockingRun(started, release)})
	post := func(body string) (int, SubmitResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/studies", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub SubmitResponse
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sub
	}
	for body, want := range map[string]int{
		`{"scenario":"smoke","experiment":["scan"]}`:                                        http.StatusBadRequest,
		`{"scenario":"smoke","seed":5} garbage`:                                             http.StatusBadRequest,
		`{"scenario":"smoke","seed":5} {}`:                                                  http.StatusBadRequest,
		`{"scenario":"smoke","seed":5,"pad":"` + strings.Repeat("x", maxSubmitBytes) + `"}`: http.StatusRequestEntityTooLarge,
	} {
		if code, _ := post(body); code != want {
			t.Fatalf("POST %.60s status = %d, want %d", body, code, want)
		}
	}

	code, first := post(`{"scenario":"smoke","seed":5,"experiments":["scan"]}` + "\n")
	if code != http.StatusAccepted {
		t.Fatalf("POST [scan] status = %d, want 202", code)
	}
	<-started
	code, dup := post(`{"scenario":"smoke","seed":5,"experiments":["scan","scan"]}`)
	if code != http.StatusOK || !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("POST [scan scan] status = %d, response %+v; want 200 deduped onto %s", code, dup, first.ID)
	}
}

func TestHTTPQueueFullSheds429(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestAPI(t, Options{QueueDepth: 1, Workers: 1, Run: blockingRun(started, release)})

	resp := postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 1})
	resp.Body.Close()
	<-started
	resp = postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 2})
	resp.Body.Close()

	resp = postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull POST status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response has no Retry-After header")
	}
}

func TestHTTPDraining503(t *testing.T) {
	m := NewManager(Options{Run: blockingRun(nil, nil)})
	m.Start(context.Background())
	mux := http.NewServeMux()
	NewAPI(m).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if err := m.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	resp := postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response has no Retry-After header")
	}
}

// TestHTTPEventStream reads the SSE endpoint end to end: history
// replay, live progress, and stream close on the terminal state.
func TestHTTPEventStream(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, srv := newTestAPI(t, Options{Run: func(ctx context.Context, j *Job, progress func(experiments.ProgressEvent)) error {
		started <- j.id
		<-release
		progress(experiments.ProgressEvent{Experiment: experiments.ExpScan, Stage: "done"})
		return nil
	}})

	resp := postStudy(t, srv.URL, SubmitRequest{Scenario: scenario.Smoke, Seed: 1,
		Experiments: []string{experiments.ExpScan}})
	var sub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	<-started

	resp, err := http.Get(srv.URL + "/studies/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	close(release)

	var payloads []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		payloads = append(payloads, ev)
	}
	// The stream must end by itself (terminal state closes it), having
	// replayed queued/running and delivered the live progress + done.
	want := []Event{
		{Type: "state", State: StateQueued},
		{Type: "state", State: StateRunning},
		{Type: "progress", Experiment: experiments.ExpScan, Stage: "done"},
		{Type: "state", State: StateDone},
	}
	if len(payloads) != len(want) {
		t.Fatalf("SSE delivered %+v, want %d events", payloads, len(want))
	}
	for i := range want {
		if payloads[i] != want[i] {
			t.Fatalf("SSE event[%d] = %+v, want %+v", i, payloads[i], want[i])
		}
	}
}

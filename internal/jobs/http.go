package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// retryAfterSeconds is the backoff hint sent with shed responses. The
// queue drains at study pace, so a short constant hint is honest
// enough; clients that keep hitting 429 should back off exponentially
// themselves.
const retryAfterSeconds = 5

// API serves the study-execution endpoints over a Manager:
//
//	POST /studies                submit {scenario, seed, experiments}
//	GET  /studies                list all jobs, newest first
//	GET  /studies/{id}           one job's status
//	GET  /studies/{id}/events    SSE stream: history replay, then live
type API struct {
	m *Manager
}

// NewAPI wraps a manager.
func NewAPI(m *Manager) *API { return &API{m: m} }

// Register mounts the study routes on mux.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /studies", a.handleSubmit)
	mux.HandleFunc("GET /studies", a.handleIndex)
	mux.HandleFunc("GET /studies/{id}", a.handleStatus)
	mux.HandleFunc("GET /studies/{id}/events", a.handleEvents)
}

// SubmitRequest is the POST /studies body.
type SubmitRequest struct {
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	Experiments []string `json:"experiments,omitempty"` // empty = all
}

// SubmitResponse echoes the job the submission mapped to.
type SubmitResponse struct {
	Status
	// Deduped is true when the POST matched an already queued or
	// running job and no new work was enqueued.
	Deduped bool `json:"deduped,omitempty"`
}

// maxSubmitBytes caps a POST /studies body; a real one is well under a
// kilobyte.
const maxSubmitBytes = 64 << 10

// decodeSubmit decodes a POST /studies body: exactly one JSON object,
// holding only SubmitRequest's fields and a scenario, followed by
// nothing but white space. An empty experiment list decodes as nil
// (all experiments), as omitting it does.
func decodeSubmit(r io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SubmitRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return SubmitRequest{}, errors.New("trailing data after the request object")
	}
	if req.Scenario == "" {
		return SubmitRequest{}, errors.New("scenario is required")
	}
	if len(req.Experiments) == 0 {
		req.Experiments = nil
	}
	return req, nil
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		if mbe := new(http.MaxBytesError); errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), code)
		return
	}
	job, deduped, err := a.m.Submit(req.Scenario, req.Seed, req.Experiments)
	switch {
	case err == nil:
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err == ErrDraining:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Status: job.Status(), Deduped: deduped})
}

func (a *API) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.m.Jobs())
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleEvents streams the job's events as server-sent events. The
// history replays first, then live events follow; the stream ends when
// the job reaches a terminal state or the client goes away.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := a.m.Get(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	events, release := job.Subscribe()
	defer release()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

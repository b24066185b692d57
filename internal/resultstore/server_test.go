package resultstore

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"torhs/internal/report"
)

// newTestServer stores one document and returns a live HTTP server
// over it.
func newTestServer(t *testing.T) (*httptest.Server, *Store) {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(testKey("scan"), testDoc("scan")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	t.Cleanup(ts.Close)
	return ts, store
}

func get(t *testing.T, url string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestExperimentsIndex(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/experiments", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments = %d", resp.StatusCode)
	}
	var rows []map[string]string
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("experiments not JSON: %v\n%s", err, body)
	}
	if len(rows) != 1 || rows[0]["experiment"] != "scan" || rows[0]["report"] != "/report/smoke/scan" {
		t.Fatalf("experiments rows = %v", rows)
	}
}

func TestReportFormatsAndETag(t *testing.T) {
	ts, store := newTestServer(t)

	// Text format equals the document's local text encoding exactly.
	resp, body := get(t, ts.URL+"/report/smoke/scan", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report = %d", resp.StatusCode)
	}
	entry, err := store.Lookup("smoke", "scan")
	if err != nil || entry == nil {
		t.Fatal("store entry lost")
	}
	doc, err := store.Document(entry)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := report.EncodeText(&text, doc); err != nil {
		t.Fatal(err)
	}
	if want := text.String(); body != want {
		t.Fatalf("served text differs from local encoding:\n--- http ---\n%q\n--- local ---\n%q", body, want)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.Contains(etag, entry.ContentHash[:32]) {
		t.Fatalf("ETag %q not derived from content hash %s", etag, entry.ContentHash)
	}

	// Conditional revalidation: matching If-None-Match gets 304.
	resp304, _ := get(t, ts.URL+"/report/smoke/scan", map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match = %d, want 304", resp304.StatusCode)
	}

	// Every format serves with a distinct ETag and the right type.
	tags := map[string]bool{}
	for _, f := range report.Formats() {
		resp, body := get(t, ts.URL+"/report/smoke/scan?format="+f, nil)
		if resp.StatusCode != http.StatusOK || body == "" {
			t.Fatalf("format %s = %d %q", f, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != report.ContentType(f) {
			t.Errorf("format %s content type %q, want %q", f, ct, report.ContentType(f))
		}
		tag := resp.Header.Get("ETag")
		if tags[tag] {
			t.Errorf("format %s reuses ETag %q", f, tag)
		}
		tags[tag] = true
	}
}

func TestReportErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for path, want := range map[string]int{
		"/report/smoke/absent":          http.StatusNotFound,
		"/report/nope/scan":             http.StatusNotFound,
		"/report/smoke/scan?format=xml": http.StatusBadRequest,
		// The mux cleans traversal segments before routing, so this can
		// never reach the handler (and Lookup validates path elements
		// besides — see TestInvalidKeysRejected).
		"/report/../smoke/scan": http.StatusNotFound,
	} {
		resp, _ := get(t, ts.URL+path, nil)
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestETagMatches(t *testing.T) {
	const tag = `"abc-text"`
	for header, want := range map[string]bool{
		``:                         false,
		`"abc-text"`:               true,
		`W/"abc-text"`:             true,
		`*`:                        true,
		`"zzz-text", "abc-text"`:   true,
		`"zzz-text",W/"abc-text"`:  true,
		`"zzz-text", "other-text"`: false,
		`"abc-json"`:               false,
	} {
		if got := etagMatches(header, tag); got != want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", header, tag, got, want)
		}
	}
}

// TestCorruptIndexEntryIs503: a hand-edited or truncated index entry
// (short content hash) degrades gracefully — 503 with Retry-After, the
// entry quarantined — and the very next request is an honest 404.
func TestCorruptIndexEntryIs503(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := Entry{Key: testKey("scan"), KeyHash: "x", ContentHash: "short"}
	data, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(store.indexPath("smoke", "scan"), data); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/report/smoke/scan", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt entry = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp, _ = get(t, ts.URL+"/report/smoke/scan", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after eviction = %d, want 404", resp.StatusCode)
	}
}

// TestMissingObjectIs503AndEvicts: a pruned object behind a live index
// entry yields 503 + Retry-After, quarantines the entry, and then 404s.
func TestMissingObjectIs503AndEvicts(t *testing.T) {
	ts, store := newTestServer(t)
	entry, err := store.Lookup("smoke", "scan")
	if err != nil || entry == nil {
		t.Fatalf("lookup: %v %v", entry, err)
	}
	if err := os.Remove(store.shardPath("objects", entry.ContentHash)); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/report/smoke/scan", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("missing object = %d (Retry-After %q) %q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if _, err := os.Stat(store.indexPath("smoke", "scan")); !os.IsNotExist(err) {
		t.Fatal("bad index entry was not evicted")
	}
	q, err := filepath.Glob(filepath.Join(store.Dir(), "quarantine", "*.json"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine glob = %v, %v; want the evicted entry", q, err)
	}
	resp, _ = get(t, ts.URL+"/report/smoke/scan", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after eviction = %d, want 404", resp.StatusCode)
	}
}

// TestReadyz: readiness tracks store readability, liveness does not.
func TestReadyz(t *testing.T) {
	ts, store := newTestServer(t)
	resp, body := get(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %q", resp.StatusCode, body)
	}

	// Make the index unwalkable — the moral equivalent of a store mount
	// disappearing under a live server.
	if err := os.RemoveAll(filepath.Join(store.Dir(), "index")); err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz over broken index = %d, want 503", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay live: %d %q", resp.StatusCode, body)
	}
}

// TestConcurrentCachedReads hammers one report from many goroutines:
// every response must be byte-identical with the same ETag (the
// immutable encode cache behind a RWMutex). Run under -race this pins
// the cache's thread safety.
func TestConcurrentCachedReads(t *testing.T) {
	ts, _ := newTestServer(t)
	first, want := get(t, ts.URL+"/report/smoke/scan?format=json", nil)
	wantTag := first.Header.Get("ETag")

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, ts.URL+"/report/smoke/scan?format=json", nil)
			if body != want || resp.Header.Get("ETag") != wantTag {
				errs <- "concurrent read diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"torhs/internal/report"
	"torhs/internal/resultstore"
)

// newStudyEnv builds a fresh Env at the shared small test configuration.
func newStudyEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	env, err := NewEnv(subsetConfig(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestRunStudyCacheSkipsExecution is the caching acceptance contract: a
// second run with UseCache against the same store executes nothing
// (observable via RunResult's scheduling report) yet renders
// byte-identical text.
func TestRunStudyCacheSkipsExecution(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Scenario: "laptop", Store: store}

	var first bytes.Buffer
	res1, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), opts, &first)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Executed) != len(Paper().Names()) || len(res1.Cached) != 0 {
		t.Fatalf("first run executed=%v cached=%v, want all executed", res1.Executed, res1.Cached)
	}

	var second bytes.Buffer
	opts.UseCache = true
	res2, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), opts, &second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Executed) != 0 {
		t.Fatalf("cached run still executed %v", res2.Executed)
	}
	if !reflect.DeepEqual(res2.Cached, Paper().Names()) {
		t.Fatalf("cached run served %v, want every experiment", res2.Cached)
	}
	if first.String() != second.String() {
		t.Fatalf("cached render differs from fresh render:\n--- fresh ---\n%s\n--- cached ---\n%s",
			first.String(), second.String())
	}
}

// TestRunStudyCacheSkipsDependencies: when the only selected experiment
// is cached, its dependency must not execute either; on a miss the
// dependency still runs.
func TestRunStudyCacheSkipsDependencies(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Names: []string{ExpContent}, Scenario: "laptop", Store: store, UseCache: true}

	res1, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Executed, []string{ExpScan, ExpContent}) {
		t.Fatalf("miss run executed %v, want scan then content", res1.Executed)
	}

	res2, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Executed) != 0 || !reflect.DeepEqual(res2.Cached, []string{ExpContent}) {
		t.Fatalf("cached run executed=%v cached=%v, want pure cache hit", res2.Executed, res2.Cached)
	}

	// The scan executed as a dependency, so its document was persisted
	// too: selecting it alone now is a cache hit, not a re-execution.
	scanOnly := opts
	scanOnly.Names = []string{ExpScan}
	res3, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), scanOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Executed) != 0 || !reflect.DeepEqual(res3.Cached, []string{ExpScan}) {
		t.Fatalf("dependency document not persisted: executed=%v cached=%v", res3.Executed, res3.Cached)
	}
}

// TestRunStudyCachedDependencyOfMissReportsExecuted: when a cached
// selected experiment must execute anyway because a cache miss depends
// on it, it is reported (and rendered) as executed, never
// double-counted as cached.
func TestRunStudyCachedDependencyOfMissReportsExecuted(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache with scan only.
	if _, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), RunOptions{
		Names: []string{ExpScan}, Scenario: "laptop", Store: store,
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Select scan+content: content misses and needs scan, so scan runs.
	var out bytes.Buffer
	res, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), RunOptions{
		Names: []string{ExpScan, ExpContent}, Scenario: "laptop", Store: store, UseCache: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Executed, []string{ExpScan, ExpContent}) || len(res.Cached) != 0 {
		t.Fatalf("executed=%v cached=%v, want both executed and nothing cached", res.Executed, res.Cached)
	}
	var fresh bytes.Buffer
	if _, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), RunOptions{Names: []string{ExpScan, ExpContent}}, &fresh); err != nil {
		t.Fatal(err)
	}
	if out.String() != fresh.String() {
		t.Fatal("partially cached run renders differently from a fresh run")
	}
}

// TestRunStudyCacheKeyedByInputs: a different seed (an output
// determinant) misses the cache; a different scenario *label* over
// identical parameters hits it — the label buckets the serving index
// but never changes output bytes, so identical runs must share one
// entry regardless of how they were spelled.
func TestRunStudyCacheKeyedByInputs(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := RunOptions{Names: []string{ExpPrefixAudit}, Scenario: "laptop", Store: store, UseCache: true}
	if _, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), base, nil); err != nil {
		t.Fatal(err)
	}

	// Different seed: miss.
	res, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 6), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) == 0 {
		t.Fatal("different seed served from cache")
	}
	// Different scenario label, same parameters: hit.
	relabelled := base
	relabelled.Scenario = "custom"
	res, err = Paper().RunStudy(context.Background(), newStudyEnv(t, 5), relabelled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 0 {
		t.Fatalf("identical run under a different label re-executed %v", res.Executed)
	}
	// The cache hit still bound the new label's serving slot: the run
	// is servable under the label it asked for, not only the original.
	if e, err := store.Lookup("custom", ExpPrefixAudit); err != nil || e == nil {
		t.Fatalf("cache-hit run did not bind its serving slot: entry=%v err=%v", e, err)
	}
}

// TestCacheKeyCoversEveryField perturbs, one at a time, every field of
// the two structs whose CacheKey addresses the result store, and
// requires the key to change exactly when the field is not exempt on
// purpose. A knob added to either struct without reaching its CacheKey
// would silently alias store entries; it fails here instead.
func TestCacheKeyCoversEveryField(t *testing.T) {
	cases := []struct {
		base   any
		key    func(any) string
		exempt string // the one field deliberately left out of the key
	}{
		{DefaultConfig(1), func(v any) string { return v.(Config).CacheKey() }, "Workers"},
		{resultstore.Key{Experiment: ExpScan, Scenario: "laptop", Params: "seed=1", CodeVersion: "v1"},
			func(v any) string { return v.(resultstore.Key).CacheKey() }, "Scenario"},
	}
	for _, tc := range cases {
		base := reflect.ValueOf(tc.base)
		want := tc.key(tc.base)
		for i := range base.NumField() {
			v := reflect.New(base.Type()).Elem()
			v.Set(base)
			f, name := v.Field(i), base.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(2*f.Float() + 1)
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("%s.%s: no perturbation for kind %s", base.Type(), name, f.Kind())
			}
			switch changed := tc.key(v.Interface()) != want; {
			case !changed && name != tc.exempt:
				t.Errorf("%s.%s does not reach CacheKey: runs that differ in it share a store entry", base.Type(), name)
			case changed && name == tc.exempt:
				t.Errorf("%s.%s is exempt but changes CacheKey", base.Type(), name)
			}
		}
	}
}

// TestRunStudyJSONRoundTrips: the combined JSON encoding decodes back
// to the same document (the acceptance round-trip on real study data),
// and the per-experiment stored documents round-trip too.
func TestRunStudyJSONRoundTrips(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := RunOptions{Names: []string{ExpPrefixAudit, ExpTracking}, Format: report.FormatJSON,
		Scenario: "laptop", Store: store}
	if _, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 5), opts, &buf); err != nil {
		t.Fatal(err)
	}
	doc, err := report.DecodeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := report.EncodeJSON(&again, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("combined study JSON did not round-trip")
	}

	entry, err := store.Lookup("laptop", ExpTracking)
	if err != nil || entry == nil {
		t.Fatalf("tracking document not stored: %v", err)
	}
	stored, err := store.Document(entry)
	if err != nil {
		t.Fatal(err)
	}
	back, err := report.DecodeJSON(strings.NewReader(string(mustCanonical(t, stored))))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, back) {
		t.Fatal("stored document did not round-trip")
	}
}

func mustCanonical(t *testing.T, d *report.Document) []byte {
	t.Helper()
	b, err := report.CanonicalJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunStudyRejectsUnknownFormat(t *testing.T) {
	if _, err := Paper().RunStudy(context.Background(), newStudyEnv(t, 1), RunOptions{Format: "xml"}, nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

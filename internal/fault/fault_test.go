package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// withInjector installs in for the duration of the test.
func withInjector(t *testing.T, in *Injector) {
	t.Helper()
	prev := Active()
	Install(in)
	t.Cleanup(func() { Install(prev) })
}

func TestHitWithoutInjector(t *testing.T) {
	withInjector(t, nil)
	if err := Hit(SiteStoreWrite); err != nil {
		t.Fatalf("Hit with no injector: %v", err)
	}
}

func TestParseGrammar(t *testing.T) {
	in, err := Parse("seed=42; hard; resultstore.write=err@2; trawl.step=crash; simnet.window=slow:5ms~0.25x3")
	if err != nil {
		t.Fatal(err)
	}
	if in.seed != 42 || !in.hard {
		t.Fatalf("seed/hard = %d/%v, want 42/true", in.seed, in.hard)
	}
	w := in.rules[SiteStoreWrite]
	if len(w) != 1 || w[0].Mode != ModeErr || w[0].At != 2 {
		t.Fatalf("write rule = %+v", w)
	}
	s := in.rules[SiteSimWindow]
	if len(s) != 1 || s[0].Mode != ModeSlow || s[0].Delay != 5*time.Millisecond || s[0].Prob != 0.25 || s[0].Count != 3 {
		t.Fatalf("window rule = %+v", s)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"nosuch.site=err",        // unregistered site
		"simnet.window=err",      // err on an error-free site
		"trawl.step=explode",     // unknown mode
		"trawl.step=err@0",       // hit indexes are 1-based
		"trawl.step=err~1.5",     // probability out of range
		"trawl.step=err~-0.5",    // negative probability
		"trawl.step=err~NaN",     // not a number: would fire on every hit
		"trawl.step=err~Inf",     // infinite probability
		"trawl.step=err:xyz",     // bad duration
		"seed=abc",               // bad seed
		"trawl.step",             // missing mode
		"trawl.step=err@2 extra", // trailing junk inside the clause
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestAtHitTrigger(t *testing.T) {
	in := New(1)
	if err := in.Set(SiteStoreWrite, Rule{Mode: ModeErr, At: 3}); err != nil {
		t.Fatal(err)
	}
	withInjector(t, in)
	for i := 1; i <= 5; i++ {
		err := Hit(SiteStoreWrite)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if err != nil && !errors.Is(err, Transient) {
			t.Fatalf("hit %d: error not transient: %v", i, err)
		}
	}
	if got := in.Fires(SiteStoreWrite); got != 1 {
		t.Fatalf("fires = %d, want 1", got)
	}
}

func TestCountCap(t *testing.T) {
	in := New(1)
	if err := in.Set(SiteTrawlStep, Rule{Mode: ModeErr, Count: 2}); err != nil {
		t.Fatal(err)
	}
	withInjector(t, in)
	fired := 0
	for i := 0; i < 6; i++ {
		if Hit(SiteTrawlStep) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestProbabilityDeterministic(t *testing.T) {
	run := func() []bool {
		in := New(99)
		if err := in.Set(SiteStoreRead, Rule{Mode: ModeErr, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
		withInjector(t, in)
		out := make([]bool, 40)
		for i := range out {
			out[i] = Hit(SiteStoreRead) != nil
		}
		return out
	}
	a, b := run(), run()
	some, all := false, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probability draw diverged at hit %d", i+1)
		}
		some = some || a[i]
		all = all && a[i]
	}
	if !some || all {
		t.Fatalf("p=0.5 over 40 hits fired always or never: %v", a)
	}
}

func TestCrashPanicsWithCrashPoint(t *testing.T) {
	in := New(1)
	if err := in.Set(SiteTask, Rule{Mode: ModeCrash, At: 1}); err != nil {
		t.Fatal(err)
	}
	withInjector(t, in)
	defer func() {
		cp, ok := recover().(CrashPoint)
		if !ok {
			t.Fatalf("recover() = %v, want CrashPoint", cp)
		}
		if cp.Site != SiteTask || cp.Hit != 1 {
			t.Fatalf("CrashPoint = %+v", cp)
		}
	}()
	Hit(SiteTask)
	t.Fatal("Hit did not panic")
}

func TestSlowProceeds(t *testing.T) {
	in := New(1)
	if err := in.Set(SiteSimWindow, Rule{Mode: ModeSlow, Delay: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	withInjector(t, in)
	MustHit(SiteSimWindow) // must not panic and must return
	if got := in.Fires(SiteSimWindow); got != 1 {
		t.Fatalf("fires = %d, want 1", got)
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	calls := 0
	err := RetryCtx(context.Background(), RetryPolicy{Attempts: 3}, func() error {
		calls++
		if calls < 3 {
			return &injectedError{site: SiteStoreWrite, hit: calls}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want nil, 3", err, calls)
	}
}

func TestRetryPermanentPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := RetryCtx(context.Background(), RetryPolicy{Attempts: 5}, func() error { calls++; return boom })
	if err != boom || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want boom after 1 call", err, calls)
	}
}

func TestRetryExhaustionIsPermanent(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		Attempts: 3,
		Backoff:  10 * time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := RetryCtx(context.Background(), p, func() error {
		calls++
		return &injectedError{site: SiteStoreWrite, hit: calls}
	})
	if err == nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want exhaustion after 3", err, calls)
	}
	if errors.Is(err, Transient) {
		t.Fatalf("exhausted error still classifies transient: %v", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoff = %v, want %v", slept, want)
	}
}

func TestRetryNoDoubleExecutionOnSuccess(t *testing.T) {
	calls := 0
	if err := RetryCtx(context.Background(), DefaultRetry, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want nil, 1", err, calls)
	}
}

func TestSiteRegistryShape(t *testing.T) {
	if _, ok := sites[Site{name: "trawl.step"}]; !ok {
		t.Fatal("trawl.step not registered")
	}
	if _, ok := sites[Site{name: "nosuch.site"}]; ok {
		t.Fatal("nosuch.site registered")
	}
	if sites[SiteSimWindow].errOK {
		t.Fatal("simnet.window must be crash/slow only")
	}
	if !sites[SiteStoreWrite].errOK {
		t.Fatal("resultstore.write must allow err mode")
	}
	names := SiteNames()
	if len(names) != len(sites) {
		t.Fatalf("SiteNames: %d names, %d sites", len(names), len(sites))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate site name %s", n)
		}
		seen[n] = true
	}
}

// TestRegisterRefusesDuplicateName pins the registry's one invariant a
// type cannot carry: two sites never share a name.
func TestRegisterRefusesDuplicateName(t *testing.T) {
	before := len(sites)
	defer func() {
		if recover() == nil {
			t.Fatal("registering trawl.step twice did not panic")
		}
		if len(sites) != before || !sites[SiteTrawlStep].errOK {
			t.Fatal("the refused registration changed the registry")
		}
	}()
	register(SiteTrawlStep.String(), false)
}

// Package fault is torhs's deterministic fault-injection plane: a
// seeded Injector that fires at named sites threaded through the layers
// that can lose or corrupt work (resultstore writes, DAG task
// boundaries, simulation window boundaries). Faults come in three
// modes — a transient error (classified via errors.Is(err, Transient)
// so schedulers can retry), a crash at the site (a sentinel CrashPoint
// panic, or a hard os.Exit for kill-style testing), and slow I/O — and
// every trigger decision is a pure function of the injector seed, the
// site name, and the per-site hit index, so a faulty run replays
// byte-identically.
//
// Injection is off unless an Injector is installed. Production code
// calls Hit (or MustHit at sites with no error return) with a site
// from sites.go; with no active injector that is one atomic load.
//
// The TORHS_FAULT environment variable installs an injector at process
// init (required so a re-exec'd test child faults before any test code
// runs). Grammar, clauses separated by ';':
//
//	seed=N                     injector seed (default 1)
//	hard                       crash mode exits the process (code 73)
//	                           instead of panicking
//	<site>=<mode>[@N][xC][~P][:DUR]
//	                           arm <site> with <mode> (err|crash|slow);
//	                           @N  fire on the Nth hit only (1-based)
//	                           xC  fire at most C times
//	                           ~P  fire with probability P per hit
//	                           :DUR sleep DUR in slow mode (default 2ms)
//
// Example: TORHS_FAULT="seed=7; hard; trawl.step=crash@2"
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point. Its values are the sites registered
// in sites.go and the zero Site, which names none: no other package can
// make a Site from a name, so a call site cannot name an unregistered
// one, and Parse rejects unknown names.
type Site struct{ name string }

// String returns the site's name.
func (s Site) String() string { return s.name }

// Mode is what happens when a rule fires.
type Mode int

const (
	// ModeErr returns a transient error from Hit.
	ModeErr Mode = iota
	// ModeCrash panics with a CrashPoint (or exits with HardExitCode
	// when the injector is hard).
	ModeCrash
	// ModeSlow sleeps for the rule's delay, then proceeds normally.
	ModeSlow
)

func (m Mode) String() string {
	switch m {
	case ModeErr:
		return "err"
	case ModeCrash:
		return "crash"
	case ModeSlow:
		return "slow"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// HardExitCode is the process exit code of a hard crash. It is
// deliberately distinct from go test's failure (1) and panic (2) exits
// so a kill harness can tell "died at the site" from "test broke".
const HardExitCode = 73

// Transient is the classification sentinel: errors.Is(err, Transient)
// reports whether err is a retryable injected fault.
var Transient = errors.New("transient fault")

// injectedError is the ModeErr payload. It matches Transient through
// Is, not wrapping, so exhaustion wrappers can drop the classification.
type injectedError struct {
	site Site
	hit  int
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("fault: injected transient error at %s (hit %d)", e.site, e.hit)
}

func (e *injectedError) Is(target error) bool { return target == Transient }

// CrashPoint is the sentinel panic value of a soft crash. Harnesses
// recover it to assert that a site fired; anything else re-panics.
type CrashPoint struct {
	Site Site
	Hit  int
}

func (c CrashPoint) String() string {
	return fmt.Sprintf("fault: crash at %s (hit %d)", c.Site, c.Hit)
}

// Rule arms one site. Zero trigger fields mean "every hit".
type Rule struct {
	Mode Mode
	// At fires on the Nth hit of the site only (1-based; 0 = any hit).
	At int
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
	// Prob fires with this per-hit probability, drawn deterministically
	// from the injector seed, the site, and the hit index (0 = always).
	Prob float64
	// Delay is the ModeSlow sleep (0 = 2ms default).
	Delay time.Duration
}

// defaultSlowDelay keeps slow-mode runs finite when no :DUR is given.
const defaultSlowDelay = 2 * time.Millisecond

type armedRule struct {
	Rule
	fired int
}

// Injector holds the armed rules and per-site hit counters. All methods
// are safe for concurrent use.
type Injector struct {
	seed int64
	hard bool

	mu    sync.Mutex
	rules map[Site][]*armedRule
	hits  map[Site]int
	fires map[Site]int
}

// New returns an empty injector with the given seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		rules: map[Site][]*armedRule{},
		hits:  map[Site]int{},
		fires: map[Site]int{},
	}
}

// Hard makes crash-mode rules exit the process (HardExitCode) instead
// of panicking, and returns the injector for chaining.
func (in *Injector) Hard() *Injector { in.hard = true; return in }

// Set arms site with r, validating the site is registered and the mode
// is allowed there (sites with no error return cannot inject ModeErr).
func (in *Injector) Set(site Site, r Rule) error {
	caps, ok := sites[site]
	if !ok {
		return fmt.Errorf("fault: unknown site %q (have: %s)", site, strings.Join(SiteNames(), ", "))
	}
	if r.Mode == ModeErr && !caps.errOK {
		return fmt.Errorf("fault: site %s cannot surface errors (crash/slow only)", site)
	}
	// The negated range test also rejects a NaN probability.
	if r.At < 0 || r.Count < 0 || !(r.Prob >= 0 && r.Prob <= 1) || r.Delay < 0 {
		return fmt.Errorf("fault: invalid rule %+v for site %s", r, site)
	}
	if r.Mode == ModeSlow && r.Delay == 0 {
		r.Delay = defaultSlowDelay
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[site] = append(in.rules[site], &armedRule{Rule: r})
	return nil
}

// Hits reports how many times site was reached (fired or not).
func (in *Injector) Hits(site Site) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fires reports how many times a rule fired at site.
func (in *Injector) Fires(site Site) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[site]
}

// hit advances the site counter and returns the rule to fire, if any.
func (in *Injector) hit(site Site) (*armedRule, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[site]++
	n := in.hits[site]
	for _, r := range in.rules[site] {
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.At > 0 && n != r.At {
			continue
		}
		if r.Prob > 0 && chance(in.seed, site, n) >= r.Prob {
			continue
		}
		r.fired++
		in.fires[site]++
		return r, n
	}
	return nil, n
}

// chance maps (seed, site, hit) to a uniform float64 in [0,1) with the
// package's own splitmix64 — fault sits below internal/parallel in the
// import graph, so it cannot borrow parallel.SeedFor.
func chance(seed int64, site Site, n int) float64 {
	h := uint64(seed)
	for _, b := range []byte(site.name) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h += uint64(n) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// active is the installed injector; nil means injection is off
// everywhere, and Hit is a single atomic load.
var active atomic.Pointer[Injector]

// Install makes in the process-wide injector (nil disarms injection).
func Install(in *Injector) { active.Store(in) }

// Active returns the installed injector, or nil.
func Active() *Injector { return active.Load() }

// Hit marks that execution reached site and applies any armed rule:
// returns a Transient-classified error (ModeErr), panics with
// CrashPoint or hard-exits (ModeCrash), or sleeps then returns nil
// (ModeSlow). With no installed injector it returns nil immediately.
func Hit(site Site) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	r, n := in.hit(site)
	if r == nil {
		return nil
	}
	switch r.Mode {
	case ModeErr:
		return &injectedError{site: site, hit: n}
	case ModeCrash:
		if in.hard {
			fmt.Fprintf(os.Stderr, "fault: hard crash at %s (hit %d)\n", site, n)
			os.Exit(HardExitCode)
		}
		panic(CrashPoint{Site: site, Hit: n})
	case ModeSlow:
		time.Sleep(r.Delay)
	}
	return nil
}

// MustHit is Hit for sites with no error return (registered crash/slow
// only, so an error here means the registry invariant broke).
func MustHit(site Site) {
	if err := Hit(site); err != nil {
		panic(fmt.Sprintf("fault: error-mode rule on error-free site %s: %v", site, err))
	}
}

// Parse builds an injector from a TORHS_FAULT spec (see package doc).
func Parse(spec string) (*Injector, error) {
	seed := int64(1)
	hard := false
	type armed struct {
		site Site
		rule Rule
	}
	var rules []armed
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		switch {
		case clause == "":
			continue
		case clause == "hard":
			hard = true
		case strings.HasPrefix(clause, "seed="):
			n, err := strconv.ParseInt(clause[len("seed="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed clause %q: %v", clause, err)
			}
			seed = n
		default:
			site, rest, ok := strings.Cut(clause, "=")
			if !ok {
				return nil, fmt.Errorf("fault: bad clause %q (want site=mode[@N][xC][~P][:DUR])", clause)
			}
			r, err := parseRule(rest)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: %v", clause, err)
			}
			rules = append(rules, armed{site: Site{name: strings.TrimSpace(site)}, rule: r})
		}
	}
	in := New(seed)
	if hard {
		in.Hard()
	}
	for _, a := range rules {
		if err := in.Set(a.site, a.rule); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// parseRule parses "mode[@N][xC][~P][:DUR]".
func parseRule(s string) (Rule, error) {
	s = strings.TrimSpace(s)
	cut := len(s)
	for i, c := range s {
		if c == '@' || c == 'x' || c == '~' || c == ':' {
			cut = i
			break
		}
	}
	var r Rule
	switch mode := s[:cut]; mode {
	case "err":
		r.Mode = ModeErr
	case "crash":
		r.Mode = ModeCrash
	case "slow":
		r.Mode = ModeSlow
	default:
		return Rule{}, fmt.Errorf("unknown mode %q (want err, crash, or slow)", mode)
	}
	rest := s[cut:]
	for rest != "" {
		op := rest[0]
		arg := rest[1:]
		end := len(arg)
		for i, c := range arg {
			if c == '@' || c == 'x' || c == '~' || c == ':' {
				end = i
				break
			}
		}
		val, next := arg[:end], arg[end:]
		switch op {
		case '@':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad @hit %q", val)
			}
			r.At = n
		case 'x':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad xcount %q", val)
			}
			r.Count = n
		case '~':
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both bounds
				return Rule{}, fmt.Errorf("bad ~prob %q", val)
			}
			r.Prob = p
		case ':':
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("bad :duration %q", val)
			}
			r.Delay = d
		default:
			return Rule{}, fmt.Errorf("bad rule suffix %q", rest)
		}
		rest = next
	}
	return r, nil
}

// EnvVar is the environment variable init consumes.
const EnvVar = "TORHS_FAULT"

func init() {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return
	}
	in, err := Parse(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault: invalid %s=%q: %v\n", EnvVar, spec, err)
		os.Exit(2)
	}
	Install(in)
}

// RetryPolicy bounds RetryCtx: Attempts total tries with exponential
// backoff starting at Backoff (doubling per retry).
type RetryPolicy struct {
	// Attempts is the total number of tries (minimum 1).
	Attempts int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it. Zero means no sleep (unit tests).
	Backoff time.Duration
	// Sleep replaces time.Sleep when non-nil (tests observe backoff
	// without waiting).
	Sleep func(time.Duration)
}

// DefaultRetry is the scheduler policy: three tries, 10ms then 20ms of
// backoff. Real studies only see injected transients, so the absolute
// durations just need to be visibly exponential and test-affordable.
var DefaultRetry = RetryPolicy{Attempts: 3, Backoff: 10 * time.Millisecond}

// exhaustedError is the permanent error after backoff runs out. It
// deliberately does not unwrap to the transient cause: exhaustion IS
// the reclassification, so a second retry layer will not spin on it.
type exhaustedError struct {
	attempts int
	last     error
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("giving up after %d attempts: %v", e.attempts, e.last)
}

// RetryCtx runs fn until it succeeds, fails permanently, or exhausts the
// policy. Only errors classified transient (errors.Is(err, Transient))
// are retried; anything else returns immediately. Exhaustion returns a
// permanent error that no longer matches Transient. A cancelled context
// is permanent too — ctx.Err() is returned before the next attempt and
// is never retried (cancellation is a decision, not weather) — and the
// backoff sleep aborts the moment ctx is cancelled instead of serving
// out its exponential wait.
func RetryCtx(ctx context.Context, p RetryPolicy, fn func() error) error {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	backoff := p.Backoff
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = fn()
		if err == nil || !errors.Is(err, Transient) {
			return err
		}
		if attempt >= p.Attempts {
			return &exhaustedError{attempts: p.Attempts, last: err}
		}
		if backoff > 0 {
			if p.Sleep != nil {
				p.Sleep(backoff)
			} else if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			backoff *= 2
		}
	}
}

// sleepCtx waits for d, reporting false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// SiteNames lists the registered sites, sorted.
func SiteNames() []string {
	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

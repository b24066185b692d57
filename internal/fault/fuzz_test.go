package fault

import (
	"math"
	"testing"
)

// TestSetRejectsNonFiniteProbability pins Set's own range check, which
// guards injectors built without Parse.
func TestSetRejectsNonFiniteProbability(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5} {
		if err := New(1).Set(SiteStoreWrite, Rule{Mode: ModeErr, Prob: p}); err == nil {
			t.Errorf("Set accepted probability %v", p)
		}
	}
}

// FuzzParse checks that Parse never panics and that every spec it
// accepts arms only in-range rules that Set accepts on a fresh injector
// (a NaN probability once passed both checks and fired on every hit).
// The seed corpus is under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		fresh := New(in.seed)
		for site, rules := range in.rules {
			for _, r := range rules {
				if r.Mode > ModeSlow || r.At < 0 || r.Count < 0 || !(r.Prob >= 0 && r.Prob <= 1) || r.Delay < 0 {
					t.Fatalf("Parse(%q) armed %s with out-of-range %+v", spec, site, r.Rule)
				}
				if err := fresh.Set(site, r.Rule); err != nil {
					t.Fatalf("Parse(%q) armed %s with %+v, which Set refuses: %v", spec, site, r.Rule, err)
				}
			}
		}
	})
}

package tracking

import (
	"context"
	"testing"
	"time"
)

func analyzeWith(t *testing.T, sc *Scenario, cfg Config) *Report {
	t.Helper()
	an, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(sc.Start, sc.Start.Add(200*24*time.Hour))), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEvaluateDetectionFullConfig(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeWith(t, sc, DefaultConfig())
	m := EvaluateDetection(sc, rep)

	if m.Recall() < 0.95 {
		t.Fatalf("recall = %.2f (missed %v), want ~1.0", m.Recall(), m.MissedRelayIDs)
	}
	if m.Precision() < 0.8 {
		t.Fatalf("precision = %.2f, want >= 0.8", m.Precision())
	}
	if m.FalsePositiveRate() > 0.02 {
		t.Fatalf("false positive rate = %.3f, want <= 0.02", m.FalsePositiveRate())
	}
}

// The ablation backing the paper's claim that fingerprint changes
// combined with ring distance are "the most reliable way to detect
// tracking": with both positional rules neutralised, the detector loses
// the trackers while the full configuration finds them.
func TestDetectionAblationPositionalRules(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	full := EvaluateDetection(sc, analyzeWith(t, sc, DefaultConfig()))

	blunted := DefaultConfig()
	blunted.RatioSuspicious = 1e17
	blunted.RatioStrong = 1e18
	blunted.SwitchLead = time.Nanosecond // switch-into-position never fires
	blunted.MinSwitches = 1000
	blunted.FreshFlagWindow = time.Nanosecond
	weak := EvaluateDetection(sc, analyzeWith(t, sc, blunted))

	if weak.Recall() >= full.Recall() {
		t.Fatalf("ablated recall %.2f not below full recall %.2f",
			weak.Recall(), full.Recall())
	}
	if full.Recall() < 0.95 {
		t.Fatalf("full-config recall = %.2f", full.Recall())
	}
	// Without positional evidence, almost all trackers are missed (the
	// binomial rule alone flags nothing at these visit counts).
	if weak.Recall() > 0.3 {
		t.Fatalf("ablated recall = %.2f, want near zero", weak.Recall())
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m := Metrics{TruePositives: 8, FalseNegatives: 2, FalsePositives: 4, HonestRelays: 100}
	if m.Recall() != 0.8 {
		t.Fatalf("recall = %v", m.Recall())
	}
	if got := m.Precision(); got < 0.66 || got > 0.67 {
		t.Fatalf("precision = %v", got)
	}
	if m.FalsePositiveRate() != 0.04 {
		t.Fatalf("fpr = %v", m.FalsePositiveRate())
	}
	var empty Metrics
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.FalsePositiveRate() != 0 {
		t.Fatal("empty metrics not zero")
	}
}

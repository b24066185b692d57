package tracking

import (
	"context"
	"testing"
	"time"

	"torhs/internal/relay"
)

// Metrics quantifies detector performance against scenario ground truth.
type Metrics struct {
	// TruePositives / FalseNegatives partition the planted trackers.
	TruePositives  int
	FalseNegatives int
	// FalsePositives counts honest relays flagged suspicious.
	FalsePositives int
	// HonestRelays is the number of non-planted relays in the report.
	HonestRelays int
	// MissedRelayIDs lists planted trackers the detector did not flag.
	MissedRelayIDs []relay.ID
}

// Precision returns TP / (TP + FP); 0 when nothing was flagged.
func (m Metrics) Precision() float64 {
	flagged := m.TruePositives + m.FalsePositives
	if flagged == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(flagged)
}

// Recall returns TP / (TP + FN); 0 when nothing was planted.
func (m Metrics) Recall() float64 {
	planted := m.TruePositives + m.FalseNegatives
	if planted == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(planted)
}

// FalsePositiveRate returns FP over the honest population.
func (m Metrics) FalsePositiveRate() float64 {
	if m.HonestRelays == 0 {
		return 0
	}
	return float64(m.FalsePositives) / float64(m.HonestRelays)
}

// EvaluateDetection scores a report against the scenario's planted
// trackers. Only trackers that appear in the report's window count as
// ground truth (a tracker outside the analysed slice cannot be found).
func EvaluateDetection(sc *Scenario, rep *Report) Metrics {
	planted := make(map[relay.ID]bool)
	for _, ids := range [][]relay.ID{sc.OwnRelayIDs, sc.BandRelayIDs, sc.TakeoverRelayIDs} {
		for _, id := range ids {
			planted[id] = true
		}
	}
	flagged := make(map[relay.ID]bool, len(rep.Suspicious))
	for _, idx := range rep.Suspicious {
		flagged[rep.Relays[idx].RelayID] = true
	}

	var m Metrics
	for _, r := range rep.Relays {
		switch {
		case planted[r.RelayID] && flagged[r.RelayID]:
			m.TruePositives++
		case planted[r.RelayID]:
			m.FalseNegatives++
			m.MissedRelayIDs = append(m.MissedRelayIDs, r.RelayID)
		case flagged[r.RelayID]:
			m.FalsePositives++
			m.HonestRelays++
		default:
			m.HonestRelays++
		}
	}
	return m
}

func analyzeWith(t *testing.T, sc *Scenario, cfg Config) *Report {
	t.Helper()
	an, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), Docs(sc.History.Range(sc.Start, sc.Start.Add(200*24*time.Hour))), sc.Target)
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

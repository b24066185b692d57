package tracking

import (
	"context"
	"fmt"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/onion"
)

// MineFingerprint models the key mining a real tracker performs: it
// returns a fingerprint positioned slot × (expected ring gap / ratio)
// after the descriptor ID, so the relay adopting it becomes (one of) the
// first fingerprints following the ID on a ring of ringSize members, at a
// distance that yields approximately the given avg_dist/distance ratio.
//
// In reality this costs ~2^40 RSA key generations per position; the
// simulation installs the result directly (see
// relay.AdoptMinedFingerprint and DESIGN.md's substitution table).
func MineFingerprint(descID onion.DescriptorID, ringSize uint64, targetRatio float64, slot uint64) onion.Fingerprint {
	if ringSize == 0 {
		ringSize = 1
	}
	if targetRatio < 1 {
		targetRatio = 1
	}
	if slot == 0 {
		slot = 1
	}
	delta := onion.MaxRingAvgGap(ringSize).DivScalar(uint64(targetRatio)).MulScalar(slot)
	return onion.RingIntFromDescriptorID(descID).Add(delta).Fingerprint()
}

// AnalyzeSlices splits [from, to] into n equal windows and analyses each
// independently — the paper analyses its three-year Silk Road window
// year by year, because the HSDir count (and hence the binomial μ+3σ
// threshold) changes over time.
func (a *Analyzer) AnalyzeSlices(
	ctx context.Context,
	h *consensus.History,
	target onion.PermanentID,
	from, to time.Time,
	n int,
) ([]*Report, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tracking: slice count %d must be positive", n)
	}
	if to.Before(from) {
		return nil, fmt.Errorf("tracking: window end before start")
	}
	total := to.Sub(from)
	out := make([]*Report, 0, n)
	for i := 0; i < n; i++ {
		sliceFrom := from.Add(time.Duration(int64(total) * int64(i) / int64(n)))
		sliceTo := from.Add(time.Duration(int64(total)*int64(i+1)/int64(n)) - time.Nanosecond)
		if i == n-1 {
			sliceTo = to
		}
		rep, err := a.Analyze(ctx, Docs(h.Range(sliceFrom, sliceTo)), target)
		if err != nil {
			return nil, fmt.Errorf("tracking: slice %d: %w", i, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

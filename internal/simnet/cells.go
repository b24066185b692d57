package simnet

import (
	"math/rand"
)

// This file models traffic at the cell level. Tor moves data in
// fixed-size 512-byte cells; the attack of [8] (adapted to clients in the
// paper's Section VI) marks a descriptor response with a distinctive
// burst pattern of padding cells that an attacker-controlled guard can
// recognise in the cell counts of a circuit, without decrypting anything.

// CellTrace is the number of cells observed on one circuit per fixed time
// bin, as counted by the entry guard.
type CellTrace []int

// signatureBurst is the marker burst size. Ordinary descriptor fetches
// move a handful of cells per bin; a 50-cell burst never occurs
// organically (cf. the 50-padding-cell signature of [8]).
const signatureBurst = 50

// AttackSignature returns the injected marker pattern: two large bursts
// separated by a one-bin gap, which makes accidental matches on bulk
// traffic even less likely.
func AttackSignature() CellTrace {
	return CellTrace{signatureBurst, 0, signatureBurst}
}

// NormalFetchTrace synthesises the guard-observed cell counts of an
// ordinary descriptor fetch: a few small request/response bins.
func NormalFetchTrace(rng *rand.Rand) CellTrace {
	bins := 4 + rng.Intn(5)
	trace := make(CellTrace, bins)
	for i := range trace {
		trace[i] = 1 + rng.Intn(8)
	}
	return trace
}

// InjectSignature appends the marker pattern to a trace, as the malicious
// directory does when answering the descriptor request.
func InjectSignature(trace CellTrace) CellTrace {
	out := make(CellTrace, 0, len(trace)+3)
	out = append(out, trace...)
	out = append(out, AttackSignature()...)
	return out
}

// DetectSignature reports whether the marker pattern occurs in the trace:
// two bins of at least the burst size separated by exactly one quiet bin.
func DetectSignature(trace CellTrace) bool {
	for i := 0; i+2 < len(trace); i++ {
		if trace[i] >= signatureBurst &&
			trace[i+1] < signatureBurst/4 &&
			trace[i+2] >= signatureBurst {
			return true
		}
	}
	return false
}

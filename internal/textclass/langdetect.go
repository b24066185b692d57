// Package textclass provides the two text classifiers the paper's content
// analysis relies on: a character-n-gram naive-Bayes language detector
// (standing in for Langdetect [11]) and a multinomial naive-Bayes topic
// classifier (standing in for Mallet [13] / uClassify [14]).
package textclass

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"torhs/internal/corpus"
)

// LanguageDetector identifies the language of a text using character
// n-gram log-likelihoods with Laplace smoothing.
type LanguageDetector struct {
	order int
	langs []string
	table *nbTable[gram]
}

// gram is a character n-gram zero-padded past the detector's order; one
// detector has one order, so padding never makes distinct n-grams equal.
type gram [4]rune

// TrainLanguageDetector builds a detector of the given n-gram order
// (1–4) from the seed corpus. Training texts are sampled with a fixed
// seed, so training is deterministic.
func TrainLanguageDetector(order int) (*LanguageDetector, error) {
	if order < 1 || order > len(gram{}) {
		return nil, fmt.Errorf("textclass: n-gram order %d out of range [1,4]", order)
	}
	langs := corpus.Languages()
	docs := make([][]gram, len(langs))
	rng := rand.New(rand.NewSource(0x7a9))
	for i, lang := range langs {
		text, err := corpus.SampleText(rng, lang, 4000, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("textclass: train %s: %w", lang, err)
		}
		docs[i] = ngrams(text, order)
	}
	return &LanguageDetector{order: order, langs: langs, table: trainTable(docs)}, nil
}

// ngrams extracts rune-level n-grams from text, lowercased, with spaces
// collapsed so layout does not affect detection.
func ngrams(text string, order int) []gram {
	runes := []rune(strings.ToLower(strings.Join(strings.Fields(text), " ")))
	if len(runes) < order {
		return nil
	}
	out := make([]gram, len(runes)-order+1)
	for i := range out {
		copy(out[i][:], runes[i:i+order])
	}
	return out
}

// Score is one language's log-likelihood for a text.
type Score struct {
	Language string
	LogProb  float64
}

// Detect returns the most likely language of text and the margin (in
// mean log-likelihood per n-gram) over the runner-up. Empty or too-short
// texts return an error.
func (d *LanguageDetector) Detect(text string) (string, float64, error) {
	scores, err := d.Scores(text)
	if err != nil {
		return "", 0, err
	}
	return scores[0].Language, scores[0].LogProb - scores[1].LogProb, nil
}

// Scores returns all languages ranked by descending mean log-likelihood
// per n-gram.
func (d *LanguageDetector) Scores(text string) ([]Score, error) {
	grams := ngrams(text, d.order)
	if len(grams) == 0 {
		return nil, fmt.Errorf("textclass: text too short for order-%d detection", d.order)
	}
	out := make([]Score, len(d.langs))
	for i, sum := range d.table.sums(grams) {
		out[i] = Score{Language: d.langs[i], LogProb: sum / float64(len(grams))}
	}
	slices.SortFunc(out, func(a, b Score) int {
		return cmp.Or(cmp.Compare(b.LogProb, a.LogProb), strings.Compare(a.Language, b.Language))
	})
	return out, nil
}

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
	"unicode"
	"unicode/utf8"

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
	train := newTrainer[gram](len(langs))
	rng := rand.New(rand.NewSource(0x7a9))
	for i, lang := range langs {
		text, err := corpus.SampleText(rng, lang, 4000, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("textclass: train %s: %w", lang, err)
		}
		for g := (grams{text: normText{s: text}, order: order}); g.next(); {
			train.count(i, train.row(g.g))
		}
	}
	return &LanguageDetector{order: order, langs: langs, table: train.table()}, nil
}

// normText reads a text as both classifiers see it, in one pass and
// without a copy: rune by rune, each rune lowercased (unicode.ToLower),
// each run of white space (unicode.IsSpace) read as one ' ', and leading
// and trailing white space dropped. An invalid UTF-8 byte reads as
// utf8.RuneError, as ranging over a string decodes it. No rune lowers to
// white space and white space lowers to itself, so this is the text's
// words (strings.Fields) joined by ' ' and lowercased, in either order.
type normText struct {
	s       string
	i       int  // byte offset of the next rune to decode
	started bool // a rune has been read
	space   bool // white space lies between the last rune read and s[i:]
}

// next returns the next rune, or -1 at the end of the text.
func (t *normText) next() rune {
	for t.i < len(t.s) {
		r, w := rune(t.s[t.i]), 1
		var space bool
		if r < utf8.RuneSelf { // unicode's own ASCII rules, inline
			space = r == ' ' || '\t' <= r && r <= '\r'
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
		} else {
			r, w = utf8.DecodeRuneInString(t.s[t.i:])
			space, r = unicode.IsSpace(r), unicode.ToLower(r)
		}
		if space {
			t.i += w
			t.space = t.started
			continue
		}
		if t.space {
			t.space = false
			return ' '
		}
		t.i += w
		t.started = true
		return r
	}
	return -1
}

// grams slides an n-gram window over a normalised text.
type grams struct {
	text  normText
	order int
	g     gram // the current n-gram once n == order
	n     int  // runes in g, up to order
}

// next moves to the next n-gram and reports whether there is one.
func (w *grams) next() bool {
	for {
		r := w.text.next()
		if r < 0 {
			return false
		}
		if w.n < w.order {
			w.n++
		} else {
			// Shift left by one: the zero shifted into g[3] keeps g
			// zero-padded past order.
			w.g = gram{w.g[1], w.g[2], w.g[3]}
		}
		w.g[w.n-1] = r
		if w.n == w.order {
			return true
		}
	}
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
// per n-gram. It reads the text once and allocates only the returned
// slice.
func (d *LanguageDetector) Scores(text string) ([]Score, error) {
	var out []Score
	n := 0
	for g := (grams{text: normText{s: text}, order: d.order}); g.next(); n++ {
		if out == nil {
			out = make([]Score, len(d.langs))
		}
		row := d.table.row(d.table.index[g.g])[:len(out)]
		for c := range out {
			out[c].LogProb += row[c]
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("textclass: text too short for order-%d detection", d.order)
	}
	for i := range out {
		out[i].Language = d.langs[i]
		out[i].LogProb /= float64(n)
	}
	slices.SortFunc(out, func(a, b Score) int {
		return cmp.Or(cmp.Compare(b.LogProb, a.LogProb), strings.Compare(a.Language, b.Language))
	})
	return out, nil
}

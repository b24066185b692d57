package textclass

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"unicode/utf8"

	"torhs/internal/corpus"
)

// TopicClassifier assigns one of the paper's 18 content categories to an
// English text using a multinomial naive-Bayes model over words.
type TopicClassifier struct {
	topics []corpus.Topic
	table  *nbTable[string]
}

// TrainTopicClassifier builds the classifier from the seed lexicons. For
// each topic the training document mixes topic keywords with English
// function words (the background every page shares), so the model learns
// to discount the background. Training is deterministic.
func TrainTopicClassifier() (*TopicClassifier, error) {
	topics := corpus.AllTopics()
	train := newTrainer[string](len(topics))
	rng := rand.New(rand.NewSource(0x70c))
	for i, topic := range topics {
		keywords, err := corpus.TopicKeywords(topic)
		if err != nil {
			return nil, fmt.Errorf("textclass: train: %w", err)
		}
		text, err := corpus.SampleText(rng, corpus.LangEnglish, 4000, keywords, 0.35)
		if err != nil {
			return nil, fmt.Errorf("textclass: train %v: %w", topic, err)
		}
		var buf [64]byte
		t := normText{s: text}
		for tok, ok := t.nextWord(buf[:0]); ok; tok, ok = t.nextWord(buf[:0]) {
			r, seen := train.t.index[string(tok)] // copies tok only for a new word
			if !seen {
				r = train.row(string(tok))
			}
			train.count(i, r)
		}
	}
	return &TopicClassifier{topics: topics, table: train.table()}, nil
}

// wordTrim marks the punctuation trimmed from both ends of a word token.
var wordTrim = func() (set [utf8.RuneSelf]bool) {
	for _, c := range ".,;:!?\"'()[]<>" {
		set[c] = true
	}
	return set
}()

// nextWord returns the text's next word token, built in buf's backing
// array when it fits: the next space-separated run with wordTrim trimmed
// from both ends, skipping runs the trim empties. It returns false at the
// end of the text.
func (t *normText) nextWord(buf []byte) ([]byte, bool) {
	for {
		buf = buf[:0]
		r := t.next()
		for ; r >= 0 && r != ' '; r = t.next() {
			buf = utf8.AppendRune(buf, r)
		}
		tok := buf
		for len(tok) > 0 && tok[0] < utf8.RuneSelf && wordTrim[tok[0]] {
			tok = tok[1:]
		}
		for len(tok) > 0 && tok[len(tok)-1] < utf8.RuneSelf && wordTrim[tok[len(tok)-1]] {
			tok = tok[:len(tok)-1]
		}
		if len(tok) > 0 {
			return tok, true
		}
		if r < 0 {
			return nil, false
		}
	}
}

// TopicScore is one topic's log-likelihood for a text.
type TopicScore struct {
	Topic   corpus.Topic
	LogProb float64
}

// Classify returns the most likely topic and its margin over the
// runner-up (mean log-likelihood per token).
func (c *TopicClassifier) Classify(text string) (corpus.Topic, float64, error) {
	scores, err := c.Scores(text)
	if err != nil {
		return 0, 0, err
	}
	return scores[0].Topic, scores[0].LogProb - scores[1].LogProb, nil
}

// Scores ranks all topics by descending mean log-likelihood per token.
// It reads the text once and allocates only the returned slice (and once
// per token longer than 64 bytes).
func (c *TopicClassifier) Scores(text string) ([]TopicScore, error) {
	var out []TopicScore
	n := 0
	var buf [64]byte
	t := normText{s: text}
	for tok, ok := t.nextWord(buf[:0]); ok; tok, ok = t.nextWord(buf[:0]) {
		if out == nil {
			out = make([]TopicScore, len(c.topics))
		}
		n++
		row := c.table.row(c.table.index[string(tok)])[:len(out)]
		for k := range out {
			out[k].LogProb += row[k]
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("textclass: empty text")
	}
	for i := range out {
		out[i].Topic = c.topics[i]
		out[i].LogProb /= float64(n)
	}
	slices.SortFunc(out, func(a, b TopicScore) int {
		return cmp.Or(cmp.Compare(b.LogProb, a.LogProb), cmp.Compare(a.Topic, b.Topic))
	})
	return out, nil
}

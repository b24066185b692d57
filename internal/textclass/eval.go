package textclass

import (
	"fmt"
	"math/rand"

	"torhs/internal/corpus"
)

// Confusion is a confusion matrix over string labels.
type Confusion struct {
	counts map[string]map[string]int // truth -> predicted -> count
	total  int
	hits   int
}

// NewConfusion creates an empty matrix.
func NewConfusion() *Confusion {
	return &Confusion{counts: make(map[string]map[string]int)}
}

// Add records one (truth, predicted) observation.
func (c *Confusion) Add(truth, predicted string) {
	row := c.counts[truth]
	if row == nil {
		row = make(map[string]int)
		c.counts[truth] = row
	}
	row[predicted]++
	c.total++
	if truth == predicted {
		c.hits++
	}
}

// Accuracy returns overall accuracy (0 when empty).
func (c *Confusion) Accuracy() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.total)
}

// Recall returns per-label recall (correct / truth-total); labels with no
// observations are omitted.
func (c *Confusion) Recall() map[string]float64 {
	out := make(map[string]float64, len(c.counts))
	for truth, row := range c.counts {
		total := 0
		for _, n := range row {
			total += n
		}
		if total > 0 {
			out[truth] = float64(row[truth]) / float64(total)
		}
	}
	return out
}

// EvaluateLanguageDetector measures the detector on freshly sampled text
// (disjoint from training by seed): samples per language, each of the
// given word count.
func EvaluateLanguageDetector(det *LanguageDetector, samples, words int, seed int64) (*Confusion, error) {
	if samples <= 0 || words <= 0 {
		return nil, fmt.Errorf("textclass: samples %d / words %d must be positive", samples, words)
	}
	rng := rand.New(rand.NewSource(seed))
	conf := NewConfusion()
	for _, lang := range corpus.Languages() {
		for i := 0; i < samples; i++ {
			text, err := corpus.SampleText(rng, lang, words, nil, 0)
			if err != nil {
				return nil, err
			}
			got, _, err := det.Detect(text)
			if err != nil {
				return nil, err
			}
			conf.Add(lang, got)
		}
	}
	return conf, nil
}

// EvaluateTopicClassifier measures the topic classifier on freshly
// sampled English pages.
func EvaluateTopicClassifier(cls *TopicClassifier, samples, words int, seed int64) (*Confusion, error) {
	if samples <= 0 || words <= 0 {
		return nil, fmt.Errorf("textclass: samples %d / words %d must be positive", samples, words)
	}
	rng := rand.New(rand.NewSource(seed))
	conf := NewConfusion()
	for _, topic := range corpus.AllTopics() {
		keywords, err := corpus.TopicKeywords(topic)
		if err != nil {
			return nil, err
		}
		for i := 0; i < samples; i++ {
			text, err := corpus.SampleText(rng, corpus.LangEnglish, words, keywords, 0.3)
			if err != nil {
				return nil, err
			}
			got, _, err := cls.Classify(text)
			if err != nil {
				return nil, err
			}
			conf.Add(topic.String(), got.String())
		}
	}
	return conf, nil
}

package textclass

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

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
	docs := make([][]string, len(topics))
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
		docs[i] = tokenize(text)
	}
	return &TopicClassifier{topics: topics, table: trainTable(docs)}, nil
}

// tokenize lowercases and splits a text into word tokens, stripping basic
// punctuation.
func tokenize(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	out := fields[:0]
	for _, f := range fields {
		f = strings.Trim(f, ".,;:!?\"'()[]<>")
		if f != "" {
			out = append(out, f)
		}
	}
	return out
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
func (c *TopicClassifier) Scores(text string) ([]TopicScore, error) {
	tokens := tokenize(text)
	if len(tokens) == 0 {
		return nil, fmt.Errorf("textclass: empty text")
	}
	out := make([]TopicScore, len(c.topics))
	for i, sum := range c.table.sums(tokens) {
		out[i] = TopicScore{Topic: c.topics[i], LogProb: sum / float64(len(tokens))}
	}
	slices.SortFunc(out, func(a, b TopicScore) int {
		return cmp.Or(cmp.Compare(b.LogProb, a.LogProb), cmp.Compare(a.Topic, b.Topic))
	})
	return out, nil
}

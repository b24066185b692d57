package textclass

import (
	"testing"

	"torhs/internal/corpus"
)

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion()
	c.Add("a", "a")
	c.Add("a", "b")
	c.Add("b", "b")
	if acc := c.Accuracy(); acc < 0.66 || acc > 0.67 {
		t.Fatalf("accuracy = %v, want 2/3", acc)
	}
	recall := c.Recall()
	if recall["a"] != 0.5 || recall["b"] != 1.0 {
		t.Fatalf("recall = %v", recall)
	}
}

func TestConfusionEmptyAccuracy(t *testing.T) {
	c := NewConfusion()
	if c.Accuracy() != 0 {
		t.Fatal("empty accuracy not 0")
	}
}

func TestEvaluateLanguageDetector(t *testing.T) {
	det, err := TrainLanguageDetector(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateLanguageDetector(det, 0, 10, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	conf, err := EvaluateLanguageDetector(det, 10, 80, 123)
	if err != nil {
		t.Fatal(err)
	}
	if acc := conf.Accuracy(); acc < 0.9 {
		t.Fatalf("accuracy = %.2f, want >= 0.9", acc)
	}
	// Every language must have been evaluated.
	recall := conf.Recall()
	if len(recall) != len(corpus.Languages()) {
		t.Fatalf("recall covers %d languages, want %d", len(recall), len(corpus.Languages()))
	}
}

func TestEvaluateTopicClassifier(t *testing.T) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateTopicClassifier(cls, 5, 0, 1); err == nil {
		t.Fatal("zero words accepted")
	}
	conf, err := EvaluateTopicClassifier(cls, 8, 130, 321)
	if err != nil {
		t.Fatal(err)
	}
	if acc := conf.Accuracy(); acc < 0.85 {
		t.Fatalf("accuracy = %.2f, want >= 0.85", acc)
	}
	if len(conf.Recall()) != corpus.NumTopics {
		t.Fatal("recall missing topics")
	}
}

package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torhs/internal/corpus"
)

func TestFlagParsing(t *testing.T) {
	if err := run([]string{"-h"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
	if err := run([]string{"-bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"-order", "5"}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "order 5") {
		t.Fatalf("-order 5 returned %v, want an out-of-range error", err)
	}
}

// writePage samples a page in lang, mixed with keywords when non-nil,
// and writes it to a temp file.
func writePage(t *testing.T, lang string, keywords []string) string {
	t.Helper()
	text, err := corpus.SampleText(rand.New(rand.NewSource(4)), lang, 150, keywords, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "page.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEnglishPageReachesTopic(t *testing.T) {
	keywords, err := corpus.TopicKeywords(corpus.TopicDrugs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-file", writePage(t, corpus.LangEnglish, keywords)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"language: " + corpus.LangEnglish + " ", "topic: " + corpus.TopicDrugs.String() + " "} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGermanPageSkipsTopic(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-file", writePage(t, corpus.LangGerman, nil)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"language: " + corpus.LangGerman + " ", "topic: skipped"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEvalPrintsBothAccuracies(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-eval"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"language detector:", "topic classifier:", "% accuracy over"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("-eval printed %d lines, want 2:\n%s", n, out)
	}
}

package textclass

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"unicode"

	"torhs/internal/corpus"
	"torhs/internal/race"
)

func TestTrainLanguageDetectorBadOrder(t *testing.T) {
	for _, order := range []int{0, 5, -1} {
		if _, err := TrainLanguageDetector(order); err == nil {
			t.Fatalf("order %d accepted, want error", order)
		}
	}
}

func TestLanguageDetectorAccuracyOnFreshSamples(t *testing.T) {
	det, err := TrainLanguageDetector(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99)) // different seed from training
	total, correct := 0, 0
	for _, lang := range corpus.Languages() {
		for i := 0; i < 20; i++ {
			text, err := corpus.SampleText(rng, lang, 80, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := det.Detect(text)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if got == lang {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("language detection accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestLanguageDetectorShortTextError(t *testing.T) {
	det, err := TrainLanguageDetector(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := det.Detect(""); err == nil {
		t.Fatal("Detect(\"\") succeeded, want error")
	}
	if _, _, err := det.Detect("ab"); err == nil {
		t.Fatal("Detect(2 runes) with order 3 succeeded, want error")
	}
}

func TestLanguageDetectorScoresSortedAndComplete(t *testing.T) {
	det, err := TrainLanguageDetector(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	text, _ := corpus.SampleText(rng, corpus.LangGerman, 60, nil, 0)
	scores, err := det.Scores(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(corpus.Languages()) {
		t.Fatalf("scores for %d languages, want %d", len(scores), len(corpus.Languages()))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i-1].LogProb < scores[i].LogProb {
			t.Fatal("scores not sorted descending")
		}
	}
}

func TestLanguageDetectorDistinguishesScripts(t *testing.T) {
	det, err := TrainLanguageDetector(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, lang := range []string{corpus.LangRussian, corpus.LangArabic, corpus.LangChinese, corpus.LangJapanese} {
		text, _ := corpus.SampleText(rng, lang, 40, nil, 0)
		got, margin, err := det.Detect(text)
		if err != nil {
			t.Fatal(err)
		}
		if got != lang {
			t.Fatalf("script-distinct language %s detected as %s", lang, got)
		}
		if margin <= 0 {
			t.Fatalf("margin %v for %s not positive", margin, lang)
		}
	}
}

func TestTopicClassifierAccuracyOnFreshSamples(t *testing.T) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	total, correct := 0, 0
	for _, topic := range corpus.AllTopics() {
		keywords, err := corpus.TopicKeywords(topic)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			text, err := corpus.SampleText(rng, corpus.LangEnglish, 120, keywords, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cls.Classify(text)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if got == topic {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("topic classification accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestTopicClassifierEmptyText(t *testing.T) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cls.Classify("   "); err == nil {
		t.Fatal("Classify(blank) succeeded, want error")
	}
}

func TestTokenizeStripsPunctuation(t *testing.T) {
	want := []string{"hello", "world", "test"}
	for name, got := range map[string][]string{
		"reference": tokenize("Hello, World! (test)"),
		"streaming": streamWords("Hello, World! (test)"),
	} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s tokens = %q, want %q", name, got, want)
		}
	}
}

// streamWords collects the tokens normText.nextWord cuts.
func streamWords(text string) []string {
	var out []string
	t := normText{s: text}
	for tok, ok := t.nextWord(nil); ok; tok, ok = t.nextWord(nil) {
		out = append(out, string(tok))
	}
	return out
}

// TestNormTextOneWayForEveryRune: normText may test white space before
// or after lowering, as strings.Fields and strings.ToLower compose either
// way, only if no rune lowers to white space and white space lowers to
// itself. Every rune is checked.
func TestNormTextOneWayForEveryRune(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); unicode.IsSpace(l) != unicode.IsSpace(r) || unicode.IsSpace(r) && l != r {
			t.Fatalf("%U lowers to %U: white space %v, then %v", r, l, unicode.IsSpace(r), unicode.IsSpace(l))
		}
	}
}

// TestScoresAllocateOnlyTheResult: Detect and Classify read a page
// without a copy of it, so the returned score slice is their one
// allocation, whatever the page's length. Collection is off while
// measuring: AllocsPerRun counts every malloc in the process, and a
// collection brings foreign ones.
func TestScoresAllocateOnlyTheResult(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts vary under -race")
	}
	det, err := TrainLanguageDetector(3)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	keywords, err := corpus.TopicKeywords(corpus.AllTopics()[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{20, 2000} {
		text, err := corpus.SampleText(rng, corpus.LangEnglish, n, keywords, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		text = "Ünïcödé  TEXT\t" + text + " \u0130STANBUL"
		if got := testing.AllocsPerRun(20, func() { _, _, _ = det.Detect(text) }); got != 1 {
			t.Fatalf("Detect of %d words allocates %v times, want 1", n, got)
		}
		if got := testing.AllocsPerRun(20, func() { _, _, _ = cls.Classify(text) }); got != 1 {
			t.Fatalf("Classify of %d words allocates %v times, want 1", n, got)
		}
	}
}

func TestTopicScoresComplete(t *testing.T) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := cls.Scores("bitcoin escrow service with guarantee")
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != corpus.NumTopics {
		t.Fatalf("scores for %d topics, want %d", len(scores), corpus.NumTopics)
	}
}

package textclass

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"torhs/internal/corpus"
)

// oracle is the reference naive-Bayes model the dense nbTable replaces:
// one map of log-probabilities per class plus a per-class unseen value,
// scored class by class with one map lookup per token per class. The
// dense table must reproduce its scores bit for bit.
type oracle struct {
	logp   []map[string]float64
	unseen []float64
}

func trainOracle(docs [][]string) *oracle {
	o := &oracle{logp: make([]map[string]float64, len(docs)), unseen: make([]float64, len(docs))}
	for i, doc := range docs {
		counts := make(map[string]int)
		total := 0
		for _, w := range doc {
			counts[w]++
			total++
		}
		// Laplace smoothing with V = distinct features + 1.
		v := float64(len(counts) + 1)
		probs := make(map[string]float64, len(counts))
		for w, c := range counts {
			probs[w] = math.Log((float64(c) + 1) / (float64(total) + v))
		}
		o.logp[i] = probs
		o.unseen[i] = math.Log(1 / (float64(total) + v))
	}
	return o
}

// means returns each class's mean log-probability per token.
func (o *oracle) means(tokens []string) []float64 {
	out := make([]float64, len(o.logp))
	for i := range o.logp {
		sum := 0.0
		for _, w := range tokens {
			if lp, ok := o.logp[i][w]; ok {
				sum += lp
			} else {
				sum += o.unseen[i]
			}
		}
		out[i] = sum / float64(len(tokens))
	}
	return out
}

// oracleNgrams is the string-keyed n-gram extraction the [4]rune grams
// replace.
func oracleNgrams(text string, order int) []string {
	runes := []rune(strings.ToLower(strings.Join(strings.Fields(text), " ")))
	if len(runes) < order {
		return nil
	}
	out := make([]string, 0, len(runes)-order+1)
	for i := 0; i+order <= len(runes); i++ {
		out = append(out, string(runes[i:i+order]))
	}
	return out
}

// tokenize is the reference word tokenizer normText.nextWord replaces:
// lowercase, split on white space, strip basic punctuation.
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

// oracleLang is the reference language detector, trained on the same
// seeded samples as TrainLanguageDetector.
type oracleLang struct {
	order int
	model *oracle
}

func trainOracleLang(t testing.TB, order int) *oracleLang {
	t.Helper()
	rng := rand.New(rand.NewSource(0x7a9))
	var docs [][]string
	for _, lang := range corpus.Languages() {
		text, err := corpus.SampleText(rng, lang, 4000, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, oracleNgrams(text, order))
	}
	return &oracleLang{order: order, model: trainOracle(docs)}
}

func (d *oracleLang) scores(text string) ([]Score, error) {
	grams := oracleNgrams(text, d.order)
	if len(grams) == 0 {
		return nil, fmt.Errorf("textclass: text too short for order-%d detection", d.order)
	}
	var out []Score
	for i, lp := range d.model.means(grams) {
		out = append(out, Score{Language: corpus.Languages()[i], LogProb: lp})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].LogProb != out[b].LogProb {
			return out[a].LogProb > out[b].LogProb
		}
		return out[a].Language < out[b].Language
	})
	return out, nil
}

// trainOracleTopic trains the reference topic classifier on the same
// seeded samples as TrainTopicClassifier.
func trainOracleTopic(t testing.TB) *oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(0x70c))
	var docs [][]string
	for _, topic := range corpus.AllTopics() {
		keywords, err := corpus.TopicKeywords(topic)
		if err != nil {
			t.Fatal(err)
		}
		text, err := corpus.SampleText(rng, corpus.LangEnglish, 4000, keywords, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, tokenize(text))
	}
	return trainOracle(docs)
}

func oracleTopicScores(o *oracle, text string) []TopicScore {
	var out []TopicScore
	for i, lp := range o.means(tokenize(text)) {
		out = append(out, TopicScore{Topic: corpus.AllTopics()[i], LogProb: lp})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].LogProb != out[b].LogProb {
			return out[a].LogProb > out[b].LogProb
		}
		return out[a].Topic < out[b].Topic
	})
	return out
}

// TestLanguageScoresMatchOracle: at every order the dense detector ranks
// fresh samples of every language exactly as the reference does, with
// bit-identical log-probabilities.
func TestLanguageScoresMatchOracle(t *testing.T) {
	for order := 1; order <= 4; order++ {
		det, err := TrainLanguageDetector(order)
		if err != nil {
			t.Fatal(err)
		}
		ref := trainOracleLang(t, order)
		rng := rand.New(rand.NewSource(int64(300 + order)))
		for _, lang := range corpus.Languages() {
			for _, words := range []int{1, 5, 40, 150} {
				text, err := corpus.SampleText(rng, lang, words, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				matchLangOracle(t, det, ref, text)
			}
		}
	}
}

// TestTopicScoresMatchOracle: the dense topic classifier ranks samples of
// every topic exactly as the reference does.
func TestTopicScoresMatchOracle(t *testing.T) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		t.Fatal(err)
	}
	ref := trainOracleTopic(t)
	rng := rand.New(rand.NewSource(301))
	for _, topic := range corpus.AllTopics() {
		keywords, err := corpus.TopicKeywords(topic)
		if err != nil {
			t.Fatal(err)
		}
		for _, words := range []int{1, 10, 120} {
			text, err := corpus.SampleText(rng, corpus.LangEnglish, words, keywords, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if len(tokenize(text)) == 0 {
				t.Fatalf("%v, %d words: no tokens in %q", topic, words, text)
			}
			matchTopicOracle(t, cls, ref, text)
		}
	}
}

// matchTopicOracle requires cls to fail on text exactly when the
// reference tokenizer finds no token in it, and otherwise to return the
// reference's scores, bit-identical and in the same order.
func matchTopicOracle(t *testing.T, cls *TopicClassifier, ref *oracle, text string) {
	t.Helper()
	got, err := cls.Scores(text)
	if len(tokenize(text)) == 0 {
		if err == nil {
			t.Fatalf("%q: no reference tokens, but scored %v", text, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	want := oracleTopicScores(ref, text)
	if len(got) != len(want) {
		t.Fatalf("%q: %d scores, want %d", text, len(got), len(want))
	}
	for i := range want {
		if got[i].Topic != want[i].Topic || got[i].LogProb != want[i].LogProb {
			t.Fatalf("%q: dense scores\n%v\nwant oracle\n%v", text, got, want)
		}
	}
}

// matchLangOracle requires det and ref to fail on text with the same
// error or to return bit-identical scores in the same order.
func matchLangOracle(t *testing.T, det *LanguageDetector, ref *oracleLang, text string) {
	t.Helper()
	got, gotErr := det.Scores(text)
	want, wantErr := ref.scores(text)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("order %d, %q: dense error %v, oracle error %v", ref.order, text, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("order %d, %q: %d scores, oracle %d", ref.order, text, len(got), len(want))
	}
	for i := range want {
		if got[i].Language != want[i].Language || got[i].LogProb != want[i].LogProb {
			t.Fatalf("order %d, %q: dense scores\n%v\nwant oracle\n%v", ref.order, text, got, want)
		}
	}
}

// FuzzLanguageScores feeds arbitrary bytes (invalid UTF-8, NULs, text
// shorter than the order) to the dense detector and the reference at
// every order: both must fail with the same error or return
// bit-identical scores. The seed corpus lives in
// testdata/fuzz/FuzzLanguageScores.
func FuzzLanguageScores(f *testing.F) {
	dets := make([]*LanguageDetector, 4)
	refs := make([]*oracleLang, 4)
	for i := range dets {
		var err error
		if dets[i], err = TrainLanguageDetector(i + 1); err != nil {
			f.Fatal(err)
		}
		refs[i] = trainOracleLang(f, i+1)
	}
	f.Fuzz(func(t *testing.T, data []byte, order uint8) {
		i := int(order % 4)
		matchLangOracle(t, dets[i], refs[i], string(data))
	})
}

// FuzzTopicScores feeds arbitrary bytes (invalid UTF-8, bare
// punctuation, runes whose case mapping changes their width) to the
// streaming topic scorer and the reference: both must find no token, or
// return bit-identical scores. The seed corpus lives in
// testdata/fuzz/FuzzTopicScores.
func FuzzTopicScores(f *testing.F) {
	cls, err := TrainTopicClassifier()
	if err != nil {
		f.Fatal(err)
	}
	ref := trainOracleTopic(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		matchTopicOracle(t, cls, ref, string(data))
	})
}

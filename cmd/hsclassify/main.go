// Command hsclassify runs the content-analysis classifiers standalone:
// it reads text from a file (or stdin), detects the language, and — for
// English text — assigns one of the paper's 18 topic categories. With
// -eval it instead prints the classifiers' accuracy on freshly sampled
// pages.
//
// Usage:
//
//	hsclassify [-file PATH]
//	echo "bitcoin escrow service with guarantee" | hsclassify
//	hsclassify -eval
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"torhs/internal/cli"
	"torhs/internal/corpus"
	"torhs/internal/textclass"
)

func main() { cli.Main("hsclassify", run) }

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hsclassify", flag.ContinueOnError)
	var (
		file  = fs.String("file", "", "read text from this file (default: stdin)")
		eval  = fs.Bool("eval", false, "print classifier accuracy on fresh samples instead")
		order = fs.Int("order", 3, "language detector n-gram order (1-4)")
	)
	if stop, err := cli.Parse(fs, args); stop {
		return err
	}

	det, err := textclass.TrainLanguageDetector(*order)
	if err != nil {
		return err
	}
	cls, err := textclass.TrainTopicClassifier()
	if err != nil {
		return err
	}

	if *eval {
		return runEval(w, det, cls)
	}

	var text []byte
	if *file != "" {
		text, err = os.ReadFile(*file)
	} else {
		text, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}

	lang, margin, err := det.Detect(string(text))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "language: %s (margin %.3f)\n", lang, margin)
	if lang != corpus.LangEnglish {
		fmt.Fprintln(w, "topic: skipped (the paper classified English pages only)")
		return nil
	}
	topic, tmargin, err := cls.Classify(string(text))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topic: %s (margin %.3f)\n", topic, tmargin)
	return nil
}

func runEval(w io.Writer, det *textclass.LanguageDetector, cls *textclass.TopicClassifier) error {
	langConf, err := textclass.EvaluateLanguageDetector(det, 25, 80, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "language detector: %.1f%% accuracy over %d languages\n",
		langConf.Accuracy()*100, len(corpus.Languages()))
	topicConf, err := textclass.EvaluateTopicClassifier(cls, 20, 130, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topic classifier:  %.1f%% accuracy over %d categories\n",
		topicConf.Accuracy()*100, corpus.NumTopics)
	return nil
}

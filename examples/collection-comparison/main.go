// Collection comparison: the paper's introduction argues that Hidden
// Wikis and onion search engines cover only a sliver of the landscape
// (three wikis + ahmia.fi ≈ 1,657 addresses vs the 39,824 trawling
// collected), because hidden services rarely link to each other. This
// example runs both collection methods over the same synthetic landscape
// and prints the gap, plus the classifier quality report used by the
// content pipeline.
//
//	go run ./examples/collection-comparison
package main

import (
	"fmt"
	"os"
	"sort"

	"torhs/internal/experiments"
	"torhs/internal/report"
	"torhs/internal/scenario"
	"torhs/internal/textclass"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "collection-comparison:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.ConfigFromSpec(scenario.MustLookup(scenario.Laptop), 17)
	study, err := experiments.NewStudy(cfg)
	if err != nil {
		return err
	}
	cmp, err := study.RunCollectionComparison()
	if err != nil {
		return err
	}
	sec := experiments.CollectionSection(cmp)
	if err := report.EncodeText(os.Stdout, report.New(sec.ID, sec)); err != nil {
		return err
	}
	fmt.Printf("trawling advantage: %.0fx more addresses than link crawling\n\n",
		float64(cmp.TrawlCollected)/float64(cmp.CrawlDiscovered))

	// Quality report for the classifiers behind the content analysis.
	det, err := textclass.TrainLanguageDetector(3)
	if err != nil {
		return err
	}
	langConf, err := textclass.EvaluateLanguageDetector(det, 25, 80, 17)
	if err != nil {
		return err
	}
	fmt.Printf("language detector accuracy on fresh pages: %.1f%%\n", langConf.Accuracy()*100)

	cls, err := textclass.TrainTopicClassifier()
	if err != nil {
		return err
	}
	topicConf, err := textclass.EvaluateTopicClassifier(cls, 20, 130, 18)
	if err != nil {
		return err
	}
	fmt.Printf("topic classifier accuracy on fresh pages:  %.1f%%\n", topicConf.Accuracy()*100)

	fmt.Println("\nper-topic recall:")
	recall := topicConf.Recall()
	keys := make([]string, 0, len(recall))
	for k := range recall {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-18s %5.1f%%\n", k, recall[k]*100)
	}
	return nil
}

package content

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"torhs/internal/core/scan"
	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// TestCrawlIdenticalAcrossWorkerCounts asserts the sharded crawl tallies
// exactly what the sequential crawl does — including the duplicate-443
// exclusions, which require shard cuts on address boundaries.
func TestCrawlIdenticalAcrossWorkerCounts(t *testing.T) {
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	sc := scan.New(fabric, scan.DefaultConfig(13))
	addrs := make([]onion.Address, 0, pop.Len())
	for _, s := range pop.Services {
		addrs = append(addrs, s.Address)
	}
	dests := DestinationsFromPorts(sc.ScanAll(addrs).PerAddress)

	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	var base *Result
	for _, workers := range []int{1, 2, 3, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cr, err := New(fabric, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cr.Crawl(dests)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("crawl result differs between workers=1 and workers=%d:\nbase: %+v\ngot:  %+v", workers, base, res)
		}
	}
	if base.Classified == 0 {
		t.Fatal("empty crawl")
	}
}

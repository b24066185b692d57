package scan

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// TestScanAllIdenticalAcrossWorkerCounts asserts the sharded sweep is a
// pure function of (seed, addresses): every worker count produces the
// same campaign result.
func TestScanAllIdenticalAcrossWorkerCounts(t *testing.T) {
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	addrs := make([]onion.Address, 0, pop.Len())
	for _, s := range pop.Services {
		addrs = append(addrs, s.Address)
	}

	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	var base *Result
	for _, workers := range []int{1, 2, 3, 4, 8} {
		cfg := DefaultConfig(11)
		cfg.Workers = workers
		sc := New(fabric, cfg)
		res := sc.ScanAll(addrs)
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("scan result differs between workers=1 and workers=%d", workers)
		}
	}
	if base.TotalOpenPorts == 0 {
		t.Fatal("empty scan")
	}
}

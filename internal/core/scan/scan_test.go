package scan

import (
	"context"
	"strings"
	"testing"

	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

func setupScan(t *testing.T, seed int64) (*Scanner, *hspop.Population, []onion.Address) {
	t.Helper()
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	fabric := darknet.New(pop)
	sc := New(fabric, DefaultConfig(seed))
	addrs := make([]onion.Address, 0, pop.Len())
	for _, s := range pop.Services {
		addrs = append(addrs, s.Address)
	}
	return sc, pop, addrs
}

func TestScanAllFig1Shape(t *testing.T) {
	sc, pop, addrs := setupScan(t, 2)
	res := sc.ScanAll(addrs)

	if res.TotalAddresses != pop.Len() {
		t.Fatalf("total = %d, want %d", res.TotalAddresses, pop.Len())
	}
	if res.WithDescriptor >= res.TotalAddresses {
		t.Fatal("descriptor churn missing: all addresses resolvable")
	}
	// Fig. 1 ordering: 55080 dominates, then 80, 443, 22.
	if !(res.OpenPortCount[hspop.PortSkynet] > res.OpenPortCount[hspop.PortHTTP]) {
		t.Fatal("port 55080 not dominant")
	}
	if !(res.OpenPortCount[hspop.PortHTTP] > res.OpenPortCount[hspop.PortHTTPS]) {
		t.Fatal("port 80 not above 443")
	}
	// All 55080 observations are abnormal errors.
	if res.AbnormalCount[hspop.PortSkynet] != res.OpenPortCount[hspop.PortSkynet] {
		t.Fatal("55080 observations not abnormal")
	}
	if res.AbnormalCount[hspop.PortHTTP] != 0 {
		t.Fatal("port 80 flagged abnormal")
	}
}

func TestScanCoveragePartial(t *testing.T) {
	sc, _, addrs := setupScan(t, 3)
	res := sc.ScanAll(addrs)
	if res.Coverage <= 0.75 || res.Coverage >= 1.0 {
		t.Fatalf("coverage = %.3f, want partial (~0.87)", res.Coverage)
	}
	if res.Timeouts == 0 {
		t.Fatal("no timeouts observed")
	}
}

func TestScanUniquePortsScaled(t *testing.T) {
	sc, _, addrs := setupScan(t, 4)
	res := sc.ScanAll(addrs)
	// At 5% scale the unique-port count should be tens (paper: 495).
	if res.UniquePorts < 10 {
		t.Fatalf("unique ports = %d, want >= 10", res.UniquePorts)
	}
	if res.TotalOpenPorts == 0 {
		t.Fatal("no open ports found")
	}
}

func TestFig1RowsOrderedWithOtherLast(t *testing.T) {
	sc, _, addrs := setupScan(t, 5)
	res := sc.ScanAll(addrs)
	rows := res.Fig1(50)
	if len(rows) < 3 {
		t.Fatalf("fig1 rows = %d", len(rows))
	}
	if rows[0].Label != "55080-Skynet" {
		t.Fatalf("top row = %q, want Skynet", rows[0].Label)
	}
	last := rows[len(rows)-1]
	if last.Label != "other" {
		t.Fatalf("last row = %q, want other", last.Label)
	}
	for i := 2; i < len(rows)-1; i++ {
		if rows[i].Count > rows[i-1].Count {
			t.Fatal("fig1 body not sorted descending")
		}
	}
}

func TestCertAuditShape(t *testing.T) {
	sc, _, addrs := setupScan(t, 6)
	res := sc.ScanAll(addrs)
	audit := sc.AuditCertificates(res)

	if audit.HTTPSServices == 0 {
		t.Fatal("no HTTPS services audited")
	}
	if audit.TorHostCN == 0 {
		t.Fatal("no TorHost CNs found")
	}
	if audit.TorHostCN > audit.SelfSignedMismatch {
		t.Fatal("TorHost CNs not a subset of mismatches")
	}
	if audit.DNSLeaks == 0 {
		t.Fatal("no DNS leaks found")
	}
	if len(audit.LeakedNames) != audit.DNSLeaks {
		t.Fatal("leaked name list inconsistent")
	}
	for _, name := range audit.LeakedNames {
		if strings.HasSuffix(name, ".onion") {
			t.Fatalf("leaked name %q is an onion address", name)
		}
	}
	// The mismatch population dominates the leak population, as in the
	// paper (1,225 vs 34).
	if audit.SelfSignedMismatch <= audit.DNSLeaks {
		t.Fatal("mismatches should dominate DNS leaks")
	}
}

func TestScanDeterministicForSeed(t *testing.T) {
	scA, _, addrsA := setupScan(t, 7)
	scB, _, addrsB := setupScan(t, 7)
	a := scA.ScanAll(addrsA)
	b := scB.ScanAll(addrsB)
	if a.TotalOpenPorts != b.TotalOpenPorts || a.UniquePorts != b.UniquePorts ||
		a.WithDescriptor != b.WithDescriptor || a.Timeouts != b.Timeouts {
		t.Fatal("scan results differ across identical runs")
	}
}

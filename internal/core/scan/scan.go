// Package scan implements the paper's Section III: port-scanning the
// collected onion addresses over a multi-day window, counting open ports
// (with the Skynet abnormal-error fingerprint on 55080 counted as open),
// and auditing the TLS certificates of HTTPS listeners.
package scan

import (
	"fmt"
	"sort"
	"strings"

	"torhs/internal/darknet"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// Config parameterises the scan campaign.
type Config struct {
	// Seed drives the per-day availability draws.
	Seed int64
	// Workers shards the sweep across goroutines (<= 0: one per CPU).
	// Availability draws are derived per address, so results are
	// identical at every worker count.
	Workers int
}

// DefaultConfig mirrors the paper's campaign shape.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed}
}

// Result aggregates a scan campaign — the data behind Fig. 1.
type Result struct {
	// TotalAddresses is the input list size (39,824 in the paper).
	TotalAddresses int
	// WithDescriptor is how many addresses had fetchable descriptors
	// (24,511 in the paper).
	WithDescriptor int
	// Timeouts counts addresses whose probes persistently timed out.
	Timeouts int
	// OpenPortCount maps port number to the number of addresses
	// answering on it (abnormal errors counted as open, as the paper
	// does for 55080).
	OpenPortCount map[int]int
	// AbnormalCount counts abnormal-error observations per port.
	AbnormalCount map[int]int
	// PerAddress lists the answering ports found per address.
	PerAddress map[onion.Address][]int
	// TotalOpenPorts is the sum over OpenPortCount (22,007 in the
	// paper).
	TotalOpenPorts int
	// UniquePorts is the number of distinct open port numbers (495 in
	// the paper).
	UniquePorts int
	// Coverage is the fraction of truly answering ports the campaign
	// found (87% in the paper).
	Coverage float64
}

// Scanner scans address lists against a fabric.
type Scanner struct {
	cfg    Config
	fabric *darknet.Fabric
}

// New builds a scanner.
func New(fabric *darknet.Fabric, cfg Config) *Scanner {
	return &Scanner{cfg: cfg, fabric: fabric}
}

// days is the number of scan days; the port space is partitioned into
// days chunks scanned on different days (as the paper did between 14 and
// 21 Feb 2013).
const days = 4

// dailyOfflineProb is the chance a service is unreachable on any given
// scan day, producing the paper's partial coverage (~87%).
const dailyOfflineProb = 0.045

// portDay assigns each port to the scan day on which its range chunk is
// swept.
func portDay(port int) int {
	return port * days / 65536
}

// shardResult is one worker's partial campaign tally.
type shardResult struct {
	withDescriptor int
	timeouts       int
	truePorts      int
	openPortCount  map[int]int
	abnormalCount  map[int]int
	perAddress     map[onion.Address][]int
}

// scanOne sweeps a single address into the shard tally. Availability is
// drawn from an RNG derived from (seed, address index), so the outcome
// for an address never depends on which worker swept it.
func (s *Scanner) scanOne(idx int, addr onion.Address, out *shardResult) {
	ports, status := s.fabric.AnsweringPorts(addr, darknet.PhaseScan)
	switch status {
	case darknet.ProbeNoDescriptor:
		return
	case darknet.ProbeTimeout:
		out.withDescriptor++
		out.timeouts++
		return
	}
	out.withDescriptor++
	out.truePorts += len(ports)

	// Per-day availability: a chunk's ports are missed if the service
	// was offline on that chunk's scan day.
	rng := parallel.NewRNG(parallel.SeedFor(s.cfg.Seed, int64(idx)))
	var offline [days]bool
	for d := range offline {
		offline[d] = rng.Float64() < dailyOfflineProb
	}
	var found []int
	for _, p := range ports {
		if offline[portDay(p)] {
			continue
		}
		found = append(found, p)
		out.openPortCount[p]++
		if s.fabric.Probe(addr, p, darknet.PhaseScan) == darknet.ProbeAbnormal {
			out.abnormalCount[p]++
		}
	}
	if len(found) > 0 {
		out.perAddress[addr] = found
	}
}

// ScanAll runs the campaign over the address list, sharded across
// cfg.Workers goroutines.
func (s *Scanner) ScanAll(addrs []onion.Address) *Result {
	res := &Result{
		TotalAddresses: len(addrs),
		OpenPortCount:  make(map[int]int),
		AbnormalCount:  make(map[int]int),
		PerAddress:     make(map[onion.Address][]int, len(addrs)),
	}
	shards := make([]shardResult, parallel.NumChunks(s.cfg.Workers, len(addrs)))
	parallel.Chunks(s.cfg.Workers, len(addrs), func(shard, lo, hi int) {
		out := &shards[shard]
		out.openPortCount = make(map[int]int)
		out.abnormalCount = make(map[int]int)
		out.perAddress = make(map[onion.Address][]int, hi-lo)
		for i := lo; i < hi; i++ {
			s.scanOne(i, addrs[i], out)
		}
	})

	// Merge in shard order; every field is a sum or a disjoint-key map
	// union, so the merged result is independent of scheduling.
	truePorts := 0
	for i := range shards {
		sh := &shards[i]
		res.WithDescriptor += sh.withDescriptor
		res.Timeouts += sh.timeouts
		truePorts += sh.truePorts
		for p, n := range sh.openPortCount {
			res.OpenPortCount[p] += n
		}
		for p, n := range sh.abnormalCount {
			res.AbnormalCount[p] += n
		}
		for a, ports := range sh.perAddress {
			res.PerAddress[a] = ports
		}
	}
	for _, n := range res.OpenPortCount {
		res.TotalOpenPorts += n
	}
	res.UniquePorts = len(res.OpenPortCount)
	if truePorts > 0 {
		res.Coverage = float64(res.TotalOpenPorts) / float64(truePorts)
	}
	return res
}

// Fig1Row is one bar of the paper's Fig. 1.
type Fig1Row struct {
	Label string
	Port  int // 0 for the aggregated "other" row
	Count int
}

// Fig1 renders the open-ports distribution exactly as the paper's figure
// groups it: named ports with counts ≥ threshold, everything else under
// "other".
func (r *Result) Fig1(threshold int) []Fig1Row {
	names := map[int]string{
		hspop.PortSkynet:  "55080-Skynet",
		hspop.PortHTTP:    "80-http",
		hspop.PortHTTPS:   "443-https",
		hspop.PortSSH:     "22-ssh",
		hspop.PortTorChat: "11009-TorChat",
		hspop.Port4050:    "4050",
		hspop.PortIRC:     "6667-irc",
	}
	var rows []Fig1Row
	other := 0
	for port, count := range r.OpenPortCount {
		name, named := names[port]
		if !named && count < threshold {
			other += count
			continue
		}
		if !named {
			name = fmt.Sprintf("%d", port)
		}
		rows = append(rows, Fig1Row{Label: name, Port: port, Count: count})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Port < rows[j].Port
	})
	rows = append(rows, Fig1Row{Label: "other", Count: other})
	return rows
}

// CertAudit summarises the Section III HTTPS-certificate analysis.
type CertAudit struct {
	// HTTPSServices is how many scanned addresses had port 443 open.
	HTTPSServices int
	// SelfSignedMismatch counts self-signed certificates whose CN does
	// not match the onion address (1,225 in the paper).
	SelfSignedMismatch int
	// TorHostCN counts certificates with the TorHost common name (1,168
	// in the paper, a subset of the mismatches).
	TorHostCN int
	// DNSLeaks counts certificates whose CN names a public DNS host,
	// deanonymising the operator (34 in the paper).
	DNSLeaks int
	// LeakedNames lists the leaked DNS names.
	LeakedNames []string
}

// AuditCertificates inspects the certificate of every scanned address
// with an open 443.
func (s *Scanner) AuditCertificates(res *Result) *CertAudit {
	audit := &CertAudit{}
	addrs := make([]onion.Address, 0, len(res.PerAddress))
	for addr := range res.PerAddress {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, addr := range addrs {
		has443 := false
		for _, p := range res.PerAddress[addr] {
			if p == hspop.PortHTTPS {
				has443 = true
				break
			}
		}
		if !has443 {
			continue
		}
		cert, err := s.fabric.TLSCert(addr, darknet.PhaseScan)
		if err != nil {
			continue
		}
		audit.HTTPSServices++
		cnIsOnion := strings.HasSuffix(cert.CommonName, ".onion")
		switch {
		case cert.SelfSigned && cnIsOnion && cert.CommonName != addr.String():
			audit.SelfSignedMismatch++
			if cert.CommonName == hspop.TorHostCN {
				audit.TorHostCN++
			}
		case !cnIsOnion:
			audit.DNSLeaks++
			audit.LeakedNames = append(audit.LeakedNames, cert.CommonName)
		}
	}
	return audit
}

// Botnet census: the workload that motivates the paper's Section III.
// Port 55080 answers with a distinctive abnormal error on machines
// infected by the "Skynet" malware, so a port scan of the collected onion
// addresses doubles as a botnet census. The Goldnet C&C fronts are then
// fingerprinted through their exposed Apache server-status pages: fronts
// sharing an uptime share a physical machine.
//
// The landscape comes from the "botnet-heavy" scenario preset (a
// Skynet-skewed population) through the shared experiment substrate.
//
//	go run ./examples/botnet-census
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"torhs/internal/core/scan"
	"torhs/internal/darknet"
	"torhs/internal/experiments"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "botnet-census:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := scenario.MustLookup(scenario.BotnetHeavy)
	env, err := experiments.NewEnv(experiments.ConfigFromSpec(spec, 7))
	if err != nil {
		return err
	}
	pop, err := env.Population(context.Background())
	if err != nil {
		return err
	}
	fabric, err := env.Fabric(context.Background())
	if err != nil {
		return err
	}

	// 1. Scan everything; count the Skynet fingerprint.
	sc := scan.New(fabric, scan.DefaultConfig(7))
	addrs := make([]onion.Address, 0, pop.Len())
	for _, s := range pop.Services {
		addrs = append(addrs, s.Address)
	}
	res := sc.ScanAll(addrs)

	infected := res.AbnormalCount[hspop.PortSkynet]
	fmt.Printf("scenario: %s (bot factor %.1fx)\n", spec.Name, spec.BotFactor)
	fmt.Printf("addresses with live descriptors: %d\n", res.WithDescriptor)
	fmt.Printf("port-55080 abnormal errors (Skynet infections): %d (%.0f%% of live services)\n",
		infected, 100*float64(infected)/float64(res.WithDescriptor))

	// 2. Fingerprint the Goldnet C&C fronts: 503 responses with an
	//    exposed server-status page; group by Apache uptime.
	uptimeGroups := map[int64][]string{}
	for addr, ports := range res.PerAddress {
		for _, p := range ports {
			if p != hspop.PortHTTP {
				continue
			}
			resp, err := fabric.Get(addr, p, darknet.PhaseScan)
			if err != nil || resp.StatusCode != 503 || !resp.ServerStatusAvailable {
				continue
			}
			ss, err := fabric.ServerStatusPage(addr, darknet.PhaseScan)
			if err != nil {
				continue
			}
			uptimeGroups[ss.UptimeSeconds] = append(uptimeGroups[ss.UptimeSeconds], addr.String())
		}
	}
	fmt.Printf("\nC&C fronts answering 503 with exposed server-status: %d physical machines\n",
		len(uptimeGroups))
	uptimes := make([]int64, 0, len(uptimeGroups))
	for u := range uptimeGroups {
		uptimes = append(uptimes, u)
	}
	sort.Slice(uptimes, func(i, j int) bool { return uptimes[i] < uptimes[j] })
	for i, u := range uptimes {
		fronts := uptimeGroups[u]
		sort.Strings(fronts)
		fmt.Printf("  machine %d (Apache uptime %ds): %d onion fronts\n", i+1, u, len(fronts))
		for _, f := range fronts {
			fmt.Printf("    %s\n", f)
		}
	}
	return nil
}

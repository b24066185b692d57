package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// digestsJSON holds the committed sha256 of each workload's text report
// per seed, and under smokeDigests that of the smoke study the serving
// probe pre-populates its store with. Regenerate it (after a change that
// is meant to alter output) with
//
//	bash perfbench/run.sh -gen-digests 32 > perfbench/digests.json
//
//go:embed digests.json
var digestsJSON []byte

// smokeDigests is the digests.json table of the serving probe's smoke
// study.
const smokeDigests = "smoke"

// digests maps workload (or smokeDigests) → seed → report digest.
var digests = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()

// committedDigest returns the committed report digest of a workload at a
// seed. Seeds outside the table have none: the run then checks that its
// repetitions (and a traced run its plain and traced repetitions) agree.
func committedDigest(workload string, seed int64) (string, bool) {
	d, ok := digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// printDigestTable computes the report digest of every workload, and of
// the smoke study, for seeds [0,n) and prints the table digests.json
// holds.
func printDigestTable(o options, n int) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	table := map[string]map[string]string{}
	add := func(name string, seed int64, digest func() (string, error)) error {
		d, err := digest()
		if err != nil {
			return err
		}
		if table[name] == nil {
			table[name] = map[string]string{}
		}
		table[name][strconv.FormatInt(seed, 10)] = d
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", name, seed, d)
		return nil
	}
	for seed := int64(0); seed < int64(n); seed++ {
		for _, w := range workloads {
			err := add(w.name, seed, func() (string, error) {
				rep, err := spawnRep(childRequest{Spec: w.study, Seed: seed, Workdir: o.workdir})
				if err != nil {
					return "", err
				}
				return rep.Digest, nil
			})
			if err != nil {
				return err
			}
		}
		err := add(smokeDigests, seed, func() (string, error) {
			dir, err := os.MkdirTemp(o.workdir, "digest-")
			if err != nil {
				return "", err
			}
			defer removeAll(dir)
			return populate(dir, seed)
		})
		if err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

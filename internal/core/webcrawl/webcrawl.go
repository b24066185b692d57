// Package webcrawl is the collection *baseline* the paper's introduction
// argues against: starting from Hidden-Wiki-style directory sites and
// following onion hyperlinks. Hidden services rarely link to each other,
// so the crawl saturates at a small fraction of the landscape — at the
// time of the paper, three Hidden Wikis plus ahmia.fi together covered
// ~1,657 addresses against the 39,824 the trawling attack harvested.
// The comparison experiment quantifies exactly that gap.
package webcrawl

import (
	"fmt"

	"torhs/internal/darknet"
	"torhs/internal/onion"
)

// Config bounds the crawl.
type Config struct {
	// MaxPages caps fetched pages (a politeness/time budget).
	MaxPages int
}

// maxDepth caps BFS depth from the seeds.
const maxDepth = 20

// DefaultConfig returns a generous budget: the baseline's weakness is
// graph sparsity, not budget.
func DefaultConfig() Config { return Config{MaxPages: 100000} }

// Result summarises a link crawl.
type Result struct {
	// Seeds are the starting addresses.
	Seeds []onion.Address
	// Discovered is every address found (seeds included).
	Discovered map[onion.Address]bool
	// Fetched counts pages retrieved.
	Fetched int
	// Unreachable counts discovered addresses that could not be fetched
	// (dead links — wikis are full of them).
	Unreachable int
	// MaxDepthReached is the deepest BFS level that yielded a new
	// address.
	MaxDepthReached int
}

// Crawler runs the baseline against a fabric.
type Crawler struct {
	cfg    Config
	fabric *darknet.Fabric
}

// New validates the configuration.
func New(fabric *darknet.Fabric, cfg Config) (*Crawler, error) {
	if cfg.MaxPages <= 0 {
		return nil, fmt.Errorf("webcrawl: page budget %d must be positive", cfg.MaxPages)
	}
	return &Crawler{cfg: cfg, fabric: fabric}, nil
}

// Crawl BFS-walks the onion link graph from the seeds, fetching pages on
// ports 80 and 443 and extracting onion hyperlinks.
func (c *Crawler) Crawl(seeds []onion.Address) *Result {
	res := &Result{
		Seeds:      append([]onion.Address(nil), seeds...),
		Discovered: make(map[onion.Address]bool, len(seeds)),
	}
	type item struct {
		addr  onion.Address
		depth int
	}
	queue := make([]item, 0, len(seeds))
	for _, s := range seeds {
		if !res.Discovered[s] {
			res.Discovered[s] = true
			queue = append(queue, item{addr: s, depth: 0})
		}
	}

	for len(queue) > 0 && res.Fetched < c.cfg.MaxPages {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth >= maxDepth {
			continue
		}

		body, ok := c.fetch(cur.addr)
		if !ok {
			res.Unreachable++
			continue
		}
		res.Fetched++
		for _, link := range darknet.ExtractOnionLinks(body) {
			if res.Discovered[link] {
				continue
			}
			res.Discovered[link] = true
			if cur.depth+1 > res.MaxDepthReached {
				res.MaxDepthReached = cur.depth + 1
			}
			queue = append(queue, item{addr: link, depth: cur.depth + 1})
		}
	}
	return res
}

// fetch tries HTTP then HTTPS.
func (c *Crawler) fetch(addr onion.Address) (string, bool) {
	for _, port := range []int{80, 443} {
		resp, err := c.fabric.Get(addr, port, darknet.PhaseScan)
		if err == nil && resp.StatusCode == 200 {
			return resp.Body, true
		}
	}
	return "", false
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"torhs/internal/fault"
)

// Checkpoints extend the store's keying from final reports to
// intermediate per-window state: a CheckpointSet holds the snapshots of
// one (experiment, params, code-version) cache key, each file one
// window index, so a killed study folds forward from the latest valid
// snapshot instead of starting over.
//
// Layout under the store root:
//
//	checkpoints/<keyhash>/win-<n>.ckpt
//
// Each file is a one-line integrity header — the format magic and the
// SHA-256 of the payload — followed by the gob-encoded snapshot (gob,
// not JSON, because snapshots carry float64s that must round-trip
// bit-exactly, including non-finite values, and exact time.Time
// instants). The pipelines' snapshots hold packed columns, not maps or
// per-entry structs: fixed-width IDs end to end in one []byte and
// per-entry scalars in typed slices, which gob writes as one
// length-prefixed run each instead of one varint per ID byte. On the
// long-axis perfbench workload, which saves after every window, that
// cut the median CPU per run from 5.14 to 3.37 s on 2 vCPUs (see
// EXPERIMENTS.md). Each snapshot carries its own format marker, so a
// payload of an older form that still decodes under this magic is
// ignored rather than half-restored. Writes are atomic and fsync'd like
// every store write; a snapshot that fails its integrity check at read
// time is quarantined and the set falls back to the previous window.
// Save prunes all but the two newest windows, and a completed run
// Clears its set, so checkpoints never accumulate.

// ckptMagic versions the checkpoint file format. Version 2 is the first
// whose snapshots are packed columns.
const ckptMagic = "torhs-ckpt/2"

// CheckpointSet is the window-indexed snapshot series of one cache key.
type CheckpointSet struct {
	s   *Store
	dir string
}

// Checkpoints returns the checkpoint set for the key. The set's
// directory is created lazily on first Save; a key that never
// checkpoints costs nothing.
func (s *Store) Checkpoints(k Key) (*CheckpointSet, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &CheckpointSet{s: s, dir: filepath.Join(s.dir, "checkpoints", k.CacheKey())}, nil
}

func (c *CheckpointSet) winPath(window int) string {
	return filepath.Join(c.dir, fmt.Sprintf("win-%08d.ckpt", window))
}

// Save snapshots state as the checkpoint after window (0-based; the
// snapshot means "windows 0..window are folded in"), then prunes every
// snapshot older than the previous one.
func (c *CheckpointSet) Save(window int, state any) error {
	if window < 0 {
		return fmt.Errorf("resultstore: negative checkpoint window %d", window)
	}
	if err := fault.Hit(fault.SiteCheckpoint); err != nil {
		return err
	}
	data, err := encodeFrame(ckptMagic, state)
	if err != nil {
		return fmt.Errorf("resultstore: encode checkpoint: %w", err)
	}
	if err := writeAtomic(c.winPath(window), data); err != nil {
		return fmt.Errorf("resultstore: write checkpoint %d: %w", window, err)
	}
	c.prune()
	return nil
}

// Latest finds the newest valid snapshot, decodes it into state (pass a
// zero value), and returns its window index. ok is false when no valid
// snapshot exists. Corrupt snapshots are quarantined and the set falls
// back to the next older one.
func (c *CheckpointSet) Latest(state any) (window int, ok bool, err error) {
	wins, err := c.windows()
	if err != nil {
		return 0, false, err
	}
	for i := len(wins) - 1; i >= 0; i-- {
		w := wins[i]
		if err := c.load(w, state); err != nil {
			if qerr := c.s.quarantine(c.winPath(w), fmt.Sprintf("invalid checkpoint: %v", err)); qerr != nil {
				return 0, false, qerr
			}
			continue
		}
		return w, true, nil
	}
	return 0, false, nil
}

// load reads and verifies one snapshot: header magic, payload hash,
// then the gob decode.
func (c *CheckpointSet) load(window int, state any) error {
	if err := fault.Hit(fault.SiteStoreRead); err != nil {
		return err
	}
	data, err := os.ReadFile(c.winPath(window))
	if err != nil {
		return err
	}
	return decodeFrame(ckptMagic, data, state)
}

// Clear removes the whole set — called after the run completes, so
// finished studies leave no checkpoint orphans behind.
func (c *CheckpointSet) Clear() error {
	return os.RemoveAll(c.dir)
}

// prune keeps only the two newest snapshots: the latest to resume from
// and its predecessor as the fallback if the latest turns out torn.
func (c *CheckpointSet) prune() {
	wins, err := c.windows()
	if err != nil {
		return
	}
	for i := 0; i+2 < len(wins); i++ {
		os.Remove(c.winPath(wins[i]))
	}
}

// windows lists the stored window indexes, ascending. Files that do not
// match the naming scheme (including writer temp files) are ignored.
func (c *CheckpointSet) windows() ([]int, error) {
	ents, err := os.ReadDir(c.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var wins []int
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), "win-")
		if !ok {
			continue
		}
		num, ok = strings.CutSuffix(num, ".ckpt")
		if !ok {
			continue
		}
		w, err := strconv.Atoi(num)
		if err != nil || w < 0 {
			continue
		}
		wins = append(wins, w)
	}
	sort.Ints(wins)
	return wins, nil
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// GCStats summarises one garbage-collection pass over the store.
type GCStats struct {
	// Objects is the number of stored objects examined.
	Objects int
	// Reachable is how many were referenced by a key or index entry.
	Reachable int
	// Removed is how many orphans were deleted.
	Removed int
	// BytesFreed is the total size of the removed objects.
	BytesFreed int64
}

// GC removes orphaned objects/ entries: documents no longer reachable
// from any keys/ or index/ reference. Orphans accumulate when a key is
// rebound to a new content hash (a code-version bump re-runs every
// experiment) or when entries are quarantined, and a long sweep session
// would otherwise grow the store unboundedly. Checkpoint files never
// reference objects (they are self-contained blobs under their own cache
// key, removed by Clear/prune), so the reachable set is exactly the
// union of the entry planes. Unparseable entries are skipped
// conservatively — a corrupt reference must not turn into a deleted
// object.
//
// GC is safe against concurrent readers (objects vanish atomically; a
// reader holding a dangling entry sees a clean miss) but not against a
// concurrent writer publishing new objects, which may race the sweep:
// run it from the CLI between studies, as `hsstudy -gc` does.
func (s *Store) GC() (GCStats, error) {
	var st GCStats
	reachable := make(map[string]bool)
	for _, base := range []string{"keys", "index"} {
		root := filepath.Join(s.dir, base)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
				return err
			}
			e, err := readEntry(path)
			if err != nil || e == nil {
				// Unreadable entry: treat its (unknown) object as live.
				return nil
			}
			if e.ContentHash != "" {
				reachable[e.ContentHash] = true
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("resultstore: gc: scanning %s: %w", base, err)
		}
	}
	st.Reachable = len(reachable)

	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		st.Objects++
		hash := strings.TrimSuffix(d.Name(), ".json")
		if reachable[hash] {
			return nil
		}
		info, ierr := d.Info()
		if rerr := os.Remove(path); rerr != nil {
			return rerr
		}
		st.Removed++
		if ierr == nil {
			st.BytesFreed += info.Size()
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("resultstore: gc: sweeping objects: %w", err)
	}

	// Drop shard directories the sweep emptied.
	if ents, err := os.ReadDir(root); err == nil {
		for _, e := range ents {
			if e.IsDir() {
				os.Remove(filepath.Join(root, e.Name())) // fails (kept) unless empty
			}
		}
	}
	return st, nil
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"

	"torhs/internal/fault"
)

// Intermediates extend the store's content-addressed keying from final
// report documents to per-stage pipeline artefacts: a trawl harvest, a
// per-window log summary — anything expensive that a re-run or a sweep
// sharing the same cache key can reuse instead of recomputing. This is
// the spill side of the streaming pipeline: a window retired from the
// sliding ring lands here once and is a cache hit forever after.
//
// Layout under the store root:
//
//	intermediates/<keyhash>/<stage>.bin
//
// Each file carries the same one-line integrity header as checkpoints
// (format magic + SHA-256 of the payload) followed by the gob-encoded
// artefact; gob, not JSON, for the same bit-exact float64/time.Time
// round-trip reasons. The trawl harvest spills in the packed-column form
// its checkpoints share (trawl.HarvestState), with its own format
// marker. Writes are atomic and fsync'd; a file failing its integrity
// check at read time is quarantined and reads as a clean miss, so a torn
// spill can only cost a recompute, never a wrong result.

// intMagic versions the intermediate-artefact file format. Version 2 is
// the first whose harvest artefact is packed columns.
const intMagic = "torhs-int/2"

// IntermediateSet holds the stage-named intermediate artefacts of one
// cache key.
type IntermediateSet struct {
	s   *Store
	dir string
}

// Intermediates returns the intermediate-artefact set for the key. The
// directory is created lazily on first Put; a key that never spills
// costs nothing.
func (s *Store) Intermediates(k Key) (*IntermediateSet, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &IntermediateSet{s: s, dir: filepath.Join(s.dir, "intermediates", k.CacheKey())}, nil
}

func (i *IntermediateSet) stagePath(stage string) string {
	return filepath.Join(i.dir, stage+".bin")
}

func validStage(stage string) error {
	if stage == "" || !pathSafe(stage) {
		return fmt.Errorf("resultstore: invalid intermediate stage %q", stage)
	}
	return nil
}

// Put stores the artefact under the stage name, replacing any previous
// artefact of that stage atomically.
func (i *IntermediateSet) Put(stage string, state any) error {
	if err := validStage(stage); err != nil {
		return err
	}
	if err := fault.Hit(fault.SiteStoreWrite); err != nil {
		return err
	}
	data, err := encodeFrame(intMagic, state)
	if err != nil {
		return fmt.Errorf("resultstore: encode intermediate %q: %w", stage, err)
	}
	if err := writeAtomic(i.stagePath(stage), data); err != nil {
		return fmt.Errorf("resultstore: write intermediate %q: %w", stage, err)
	}
	return nil
}

// Get decodes the stage's artefact into state (pass a zero value). ok is
// false on a clean miss; a corrupt artefact is quarantined and also
// reads as a miss.
func (i *IntermediateSet) Get(stage string, state any) (ok bool, err error) {
	if err := validStage(stage); err != nil {
		return false, err
	}
	if err := fault.Hit(fault.SiteStoreRead); err != nil {
		return false, err
	}
	path := i.stagePath(stage)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("resultstore: %w", err)
	}
	if err := decodeFrame(intMagic, data, state); err != nil {
		if qerr := i.s.quarantine(path, fmt.Sprintf("invalid intermediate: %v", err)); qerr != nil {
			return false, qerr
		}
		return false, nil
	}
	return true, nil
}

// Clear removes the whole set.
func (i *IntermediateSet) Clear() error {
	return os.RemoveAll(i.dir)
}

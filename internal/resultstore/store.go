// Package resultstore persists experiment report documents in a
// content-addressed on-disk store. Every document is stored once under
// the SHA-256 of its canonical JSON encoding; cache keys — the hash of
// everything that determines an experiment's output (scenario spec,
// seed, study parameters, experiment name, code version) — map onto
// those objects, and a per-scenario index lets the HTTP layer serve
// the latest artefact for a (scenario, experiment) pair.
//
// Layout under the store root:
//
//	objects/<aa>/<contenthash>.json   canonical JSON document, named by its own hash
//	keys/<aa>/<keyhash>.json          Entry: key fields -> content hash
//	index/<scenario>/<experiment>.json  same Entry, for serving lookups
//
// Writes go through a temp file (fsync'd, as is its directory) + atomic
// rename, so concurrent writers and readers (the serve mode) never
// observe torn objects — even across a power cut — and rewriting an
// identical entry is idempotent. Open scans the store and quarantines
// (rather than crashes on or silently skips) any torn or corrupt file
// it finds, moving it to quarantine/ with a reason sidecar.
//
// The write, rename, and read paths carry fault-plane sites
// (resultstore.write / resultstore.rename / resultstore.read), so the
// crash-kill harness can prove a study killed mid-publish resumes
// cleanly.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"torhs/internal/fault"
	"torhs/internal/report"
)

// Key identifies one experiment output: everything that determines the
// bytes, nothing that doesn't (worker count, output format).
type Key struct {
	// Experiment is the registry name ("scan", "tracking", …).
	Experiment string `json:"experiment"`
	// Scenario is the preset name the run was configured from (also the
	// serving index bucket).
	//
	//torhs:nocachekey a serving-index label, not an input: the same parameters spelled via a preset or via explicit flags must hit the same cache entry
	Scenario string `json:"scenario"`
	// Params is the canonical study-parameter string
	// (experiments.Config.CacheKey: seed, scale, clients, …).
	Params string `json:"params"`
	// CodeVersion invalidates cached artefacts when the pipeline's
	// output-affecting code changes (experiments.OutputVersion).
	CodeVersion string `json:"codeVersion"`
}

// CacheKey returns the key's cache address: SHA-256 over the fields
// that determine output bytes — experiment, params, code version.
// Scenario is excluded via its //torhs:nocachekey directive, which the
// cachekey analyzer audits: adding a Key field without consuming it
// here (or exempting it) fails torhsvet.
func (k Key) CacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "experiment=%s\nparams=%s\ncode=%s\n",
		k.Experiment, k.Params, k.CodeVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// Validate rejects keys that cannot be addressed or indexed.
func (k Key) Validate() error {
	switch {
	case k.Experiment == "" || !pathSafe(k.Experiment):
		return fmt.Errorf("resultstore: invalid experiment %q", k.Experiment)
	case k.Scenario == "" || !pathSafe(k.Scenario):
		return fmt.Errorf("resultstore: invalid scenario %q", k.Scenario)
	}
	return nil
}

// pathSafe reports whether s can be a single path element of the index
// layout (and an URL path segment of the serving layer).
func pathSafe(s string) bool {
	if s == "." || s == ".." {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Entry records one stored artefact: the full key, its hash, and the
// content hash of the document object it maps to.
type Entry struct {
	Key         Key    `json:"key"`
	KeyHash     string `json:"keyHash"`
	ContentHash string `json:"contentHash"`
}

// Store is a content-addressed result store rooted at a directory.
// Method receivers are safe for concurrent use; cross-process safety
// comes from atomic rename writes.
type Store struct {
	dir string
}

// Open creates (if necessary) and opens a store rooted at dir, then
// scans it for torn or corrupt files: a truncated object, a bit-flipped
// hash, or an unparseable entry is moved into quarantine/ (with a
// .reason sidecar and a logged reason) instead of poisoning later reads,
// and stale temp files from crashed writers are deleted.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty store directory")
	}
	for _, sub := range []string{"objects", "keys", "index"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	s := &Store{dir: dir}
	if err := s.scanAndQuarantine(); err != nil {
		return nil, err
	}
	return s, nil
}

// tmpMaxAge is how old a .tmp-* file must be before the startup scan
// deletes it; younger files may belong to a concurrent live writer.
const tmpMaxAge = 10 * time.Minute

// scanAndQuarantine verifies every object against its content hash and
// every key/index entry against its schema, quarantining what fails.
func (s *Store) scanAndQuarantine() error {
	for _, base := range []string{"objects", "keys", "index"} {
		root := filepath.Join(s.dir, base)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			name := d.Name()
			if strings.HasPrefix(name, ".tmp-") {
				if info, err := d.Info(); err == nil && time.Since(info.ModTime()) > tmpMaxAge {
					os.Remove(path)
				}
				return nil
			}
			if !strings.HasSuffix(name, ".json") {
				return s.quarantine(path, "unexpected file in "+base+"/")
			}
			if base == "objects" {
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != strings.TrimSuffix(name, ".json") {
					return s.quarantine(path, fmt.Sprintf("content hash mismatch: file hashes to %s", got))
				}
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			e, err := decodeEntry(data)
			if err != nil {
				return s.quarantine(path, fmt.Sprintf("unparseable entry: %v", err))
			}
			if e.ContentHash == "" || !pathSafe(e.ContentHash) {
				return s.quarantine(path, fmt.Sprintf("entry has invalid content hash %q", e.ContentHash))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("resultstore: scanning %s: %w", base, err)
		}
	}
	return nil
}

// quarantine moves the file at path into quarantine/ alongside a
// .reason sidecar recording why, and logs the action. The original
// path disappears, so subsequent reads see a clean miss instead of the
// corruption.
func (s *Store) quarantine(path, reason string) error {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%d-%s", i, filepath.Base(path)))
	}
	if err := os.Rename(path, dst); err != nil {
		return err
	}
	os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	log.Printf("resultstore: quarantined %s -> %s: %s", path, dst, reason)
	return nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// shardPath splits a hash into <aa>/<hash>.json under base.
func (s *Store) shardPath(base, hash string) string {
	return filepath.Join(s.dir, base, hash[:2], hash+".json")
}

func (s *Store) indexPath(scenario, experiment string) string {
	return filepath.Join(s.dir, "index", scenario, experiment+".json")
}

// writeAtomic writes data via a temp file + rename so readers never see
// partial content, fsyncing the temp file before the rename and the
// directory after it so the publish survives a power cut: without the
// file sync a crash can leave a correctly-named file with torn content,
// and without the directory sync the rename itself can be lost.
func writeAtomic(path string, data []byte) error {
	if err := fault.Hit(fault.SiteStoreWrite); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes the file 0600; the store is world-readable data
	// (a different user may run the serve side), so match the 0755
	// directories.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := fault.Hit(fault.SiteStoreRename); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return serr
		}
	}
	return nil
}

// Put stores the document under its content hash and binds the key (and
// the scenario/experiment index slot) to it. Re-putting an identical
// document is idempotent; a changed document under the same key (a new
// code version should prevent this, but hand-edited stores happen)
// simply rebinds the key.
func (s *Store) Put(k Key, doc *report.Document) (contentHash string, err error) {
	if err := k.Validate(); err != nil {
		return "", err
	}
	canon, err := report.CanonicalJSON(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	contentHash = hex.EncodeToString(sum[:])
	// The object's name is the hash of its bytes, so an existing file
	// is identical by construction — skip the rewrite on warm stores.
	objPath := s.shardPath("objects", contentHash)
	if _, statErr := os.Stat(objPath); statErr != nil {
		if err := writeAtomic(objPath, canon); err != nil {
			return "", fmt.Errorf("resultstore: write object: %w", err)
		}
	}
	if err := s.Bind(k, contentHash); err != nil {
		return "", err
	}
	return contentHash, nil
}

// Bind maps the key — and its scenario/experiment serving-index slot —
// to an already-stored object without rewriting the object itself. The
// cache layer uses it on hits so that a run served entirely from cache
// under a new scenario label still becomes servable under that label.
// Binding an already-bound slot is a read-only no-op, so fully-cached
// runs work against read-only stores (e.g. a directory owned by the
// serve-side user).
func (s *Store) Bind(k Key, contentHash string) error {
	if err := k.Validate(); err != nil {
		return err
	}
	entry := Entry{Key: k, KeyHash: k.CacheKey(), ContentHash: contentHash}
	keyBound := entryMatches(s.shardPath("keys", entry.KeyHash), contentHash)
	indexBound := entryMatches(s.indexPath(k.Scenario, k.Experiment), contentHash)
	if keyBound && indexBound {
		return nil
	}
	data, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		return err
	}
	if !keyBound {
		if err := writeAtomic(s.shardPath("keys", entry.KeyHash), data); err != nil {
			return fmt.Errorf("resultstore: write key: %w", err)
		}
	}
	if !indexBound {
		if err := writeAtomic(s.indexPath(k.Scenario, k.Experiment), data); err != nil {
			return fmt.Errorf("resultstore: write index: %w", err)
		}
	}
	return nil
}

// entryMatches reports whether the entry file at path already points at
// contentHash (a missing or corrupt entry reads as unbound, so Bind
// repairs it by rewriting).
func entryMatches(path, contentHash string) bool {
	e, err := readEntry(path)
	return err == nil && e != nil && e.ContentHash == contentHash
}

// Get returns the document cached under the key, if present. ok is
// false (with a nil error) on a clean miss — including a dangling key
// whose object was pruned.
func (s *Store) Get(k Key) (doc *report.Document, contentHash string, ok bool, err error) {
	if err := k.Validate(); err != nil {
		return nil, "", false, err
	}
	entry, err := readEntry(s.shardPath("keys", k.CacheKey()))
	if err != nil {
		return nil, "", false, err
	}
	if entry == nil || entry.ContentHash == "" {
		return nil, "", false, nil
	}
	doc, err = s.loadObject(entry.ContentHash)
	if err != nil {
		return nil, "", false, err
	}
	if doc == nil {
		return nil, "", false, nil
	}
	return doc, entry.ContentHash, true, nil
}

// Lookup returns the serving-index entry for a (scenario, experiment)
// pair, or nil on a miss.
func (s *Store) Lookup(scenario, experiment string) (*Entry, error) {
	if !pathSafe(scenario) || !pathSafe(experiment) || scenario == "" || experiment == "" {
		return nil, fmt.Errorf("resultstore: invalid lookup %q/%q", scenario, experiment)
	}
	return readEntry(s.indexPath(scenario, experiment))
}

func readEntry(path string) (*Entry, error) {
	if err := fault.Hit(fault.SiteStoreRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	e, err := decodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("resultstore: corrupt entry %s: %w", path, err)
	}
	return e, nil
}

// decodeEntry decodes a key or index entry file.
func decodeEntry(data []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// ObjectBytes returns the canonical JSON bytes of a stored document, or
// nil on a miss.
func (s *Store) ObjectBytes(contentHash string) ([]byte, error) {
	if !pathSafe(contentHash) || len(contentHash) < 3 {
		return nil, fmt.Errorf("resultstore: invalid content hash %q", contentHash)
	}
	if err := fault.Hit(fault.SiteStoreRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.shardPath("objects", contentHash))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return data, nil
}

// loadObject decodes a stored document, nil on a miss.
func (s *Store) loadObject(contentHash string) (*report.Document, error) {
	data, err := s.ObjectBytes(contentHash)
	if err != nil || data == nil {
		return nil, err
	}
	return report.DecodeJSON(bytes.NewReader(data))
}

// Document loads the document an index entry points at.
func (s *Store) Document(e *Entry) (*report.Document, error) {
	doc, err := s.loadObject(e.ContentHash)
	if err != nil {
		return nil, err
	}
	if doc == nil {
		return nil, fmt.Errorf("resultstore: index entry %s/%s points at missing object %s",
			e.Key.Scenario, e.Key.Experiment, e.ContentHash)
	}
	return doc, nil
}

// List walks the serving index and returns every entry, sorted by
// scenario then experiment for stable output. A corrupt entry file is
// skipped rather than failing the whole listing — one bad slot must not
// take down the server's startup or its /experiments index (requests
// for the bad slot itself still surface the corruption as an error).
func (s *Store) List() ([]Entry, error) {
	root := filepath.Join(s.dir, "index")
	var out []Entry
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		e, err := readEntry(path)
		if err != nil {
			return nil
		}
		if e != nil {
			out = append(out, *e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Scenario != out[j].Key.Scenario {
			return out[i].Key.Scenario < out[j].Key.Scenario
		}
		return out[i].Key.Experiment < out[j].Key.Experiment
	})
	return out, nil
}

package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/rbac"
	"repro/internal/ttl"
)

// On-disk layout under Options.Dir:
//
//	datasets/<digest>.json   canonical dataset encoding; the filename
//	                         IS the expected SHA-256, re-verified on
//	                         every load so corruption is rejected
//	results/<keyhash>.json   resultFile envelope; keyhash = SHA-256 of
//	                         the cache key string, re-verified against
//	                         the envelope's own key fields on load
//
// Every write goes through a temp file + rename in the same directory,
// so a crash mid-write leaves either the old content or nothing —
// never a half-written snapshot that could hash-mismatch spuriously.

// resultFile is the persisted form of one cached analysis result.
type resultFile struct {
	Dataset     string          `json:"dataset"`
	Fingerprint string          `json:"fingerprint"`
	Kind        string          `json:"kind"`
	CreatedAt   time.Time       `json:"createdAt"`
	Body        json.RawMessage `json:"body"`
}

func (s *Store) datasetDir() string { return filepath.Join(s.opts.Dir, "datasets") }
func (s *Store) resultDir() string  { return filepath.Join(s.opts.Dir, "results") }

func (s *Store) datasetPath(digest string) string {
	return filepath.Join(s.datasetDir(), digest+".json")
}

func (s *Store) resultPath(keyStr string) string {
	return filepath.Join(s.resultDir(), hashKey(keyStr)+".json")
}

func (s *Store) ensureDirs() error {
	for _, dir := range []string{s.datasetDir(), s.resultDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: create %s: %w", dir, err)
		}
	}
	return nil
}

// atomicWrite lands what write produces at path via a same-directory
// temp file and rename.
func atomicWrite(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// writeDatasetFile persists a dataset's canonical encoding, streamed
// into the file.
func (s *Store) writeDatasetFile(digest string, ds *rbac.Dataset) error {
	return atomicWrite(s.datasetPath(digest), func(w io.Writer) error {
		_, err := ds.WriteCanonical(w)
		return err
	})
}

// removeDatasetFile deletes the persisted copy; removed reports
// whether a file existed.
func (s *Store) removeDatasetFile(digest string) (removed bool, err error) {
	err = os.Remove(s.datasetPath(digest))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// loadDatasetFile reads and verifies one persisted dataset. A missing
// file is (nil, nil); a digest mismatch or unparsable content is an
// error — the snapshot is rejected, never served.
func (s *Store) loadDatasetFile(digest string) (*dsEntry, error) {
	raw, err := os.ReadFile(s.datasetPath(digest))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return nil, fmt.Errorf("digest mismatch: file hashes to %s (corrupted or tampered with)", got)
	}
	ds, err := parseCanonical(raw)
	if err != nil {
		return nil, err
	}
	return &dsEntry{digest: digest, ds: ds, size: int64(len(raw)), stats: ds.Stats()}, nil
}

func (s *Store) writeResultFile(key Key, keyStr string, body []byte) error {
	env, err := json.Marshal(resultFile{
		Dataset:     key.Dataset,
		Fingerprint: key.Fingerprint,
		Kind:        key.Kind,
		CreatedAt:   time.Now(),
		Body:        json.RawMessage(body),
	})
	if err != nil {
		return err
	}
	return atomicWrite(s.resultPath(keyStr), func(w io.Writer) error {
		_, err := w.Write(env)
		return err
	})
}

// loadResultFile reads one persisted cache entry, verifying the
// envelope's key fields against the requested key and its age against
// the TTL. Missing, mismatched, or expired files yield (nil, nil);
// expired and mismatched ones are removed.
func (s *Store) loadResultFile(key Key, keyStr string) ([]byte, error) {
	path := s.resultPath(keyStr)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var env resultFile
	if err := json.Unmarshal(raw, &env); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("corrupt cache entry removed: %w", err)
	}
	if env.Dataset != key.Dataset || env.Fingerprint != key.Fingerprint || env.Kind != key.Kind {
		os.Remove(path)
		return nil, fmt.Errorf("cache entry key mismatch (removed)")
	}
	if ttl.Expired(env.CreatedAt, time.Now(), s.opts.TTL) {
		os.Remove(path)
		return nil, nil
	}
	return []byte(env.Body), nil
}

// loadAll warms the in-memory store from Dir at startup: every
// digest-verified dataset and every unexpired cache entry, oldest
// first so the LRU budget keeps the newest. Corrupt files are skipped
// with a logged warning; expired cache entries are deleted.
func (s *Store) loadAll() {
	type candidate struct {
		name  string
		mtime time.Time
	}
	scan := func(dir string) []candidate {
		entries, err := os.ReadDir(dir)
		if err != nil {
			s.opts.Logf("store: scan %s: %v", dir, err)
			return nil
		}
		var out []candidate
		for _, de := range entries {
			if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue
			}
			out = append(out, candidate{name: de.Name(), mtime: info.ModTime()})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].mtime.Before(out[j].mtime) })
		return out
	}

	for _, c := range scan(s.datasetDir()) {
		digest, err := ParseDigest(c.name[:len(c.name)-len(".json")])
		if err != nil {
			s.opts.Logf("store: skipping %s: %v", c.name, err)
			continue
		}
		e, err := s.loadDatasetFile(digest)
		if err != nil {
			s.opts.Logf("store: rejecting dataset %s at load: %v", digest, err)
			continue
		}
		if e == nil {
			continue
		}
		s.mu.Lock()
		s.insertDatasetLocked(e)
		s.mu.Unlock()
	}

	for _, c := range scan(s.resultDir()) {
		path := filepath.Join(s.resultDir(), c.name)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var env resultFile
		if err := json.Unmarshal(raw, &env); err != nil {
			s.opts.Logf("store: rejecting cache entry %s at load: %v", c.name, err)
			os.Remove(path)
			continue
		}
		key := Key{Dataset: env.Dataset, Fingerprint: env.Fingerprint, Kind: env.Kind}
		keyStr := key.String()
		if hashKey(keyStr)+".json" != c.name {
			s.opts.Logf("store: rejecting cache entry %s at load: key fields do not hash to filename", c.name)
			os.Remove(path)
			continue
		}
		if ttl.Expired(env.CreatedAt, time.Now(), s.opts.TTL) {
			os.Remove(path)
			continue
		}
		s.mu.Lock()
		if _, ok := s.results[keyStr]; !ok && int64(len(env.Body)) <= s.opts.MaxBytes {
			e := &resEntry{key: keyStr, body: []byte(env.Body), created: env.CreatedAt}
			e.elem = s.lru.PushFront(lruItem{key: keyStr})
			s.results[keyStr] = e
			s.bytes += int64(len(env.Body))
			s.evictLocked()
		}
		s.mu.Unlock()
	}
}

// Package store is the content-addressed dataset registry and analysis
// result cache sitting between the HTTP surface and the detection
// engines.
//
// The paper's operating model is periodic re-analysis of the same RBAC
// database, so the dominant waste at scale is re-shipping and
// re-analysing unchanged data. The store removes both: a dataset is
// ingested once and addressed by the SHA-256 digest of its canonical
// encoding (see Digest); analysis results are cached under
// (dataset digest, options fingerprint, kind) with single-flight
// de-duplication so N concurrent identical requests run the engine
// exactly once and N-1 callers wait for the first.
//
// The store holds parsed datasets only. Their canonical bytes are
// produced when someone reads them (GetDataset, persistence), by
// streaming rbac.Dataset.WriteCanonical, and a dataset is accounted at
// its canonical length.
//
// Memory is bounded by a byte-budget LRU across datasets and cached
// results together. Cached results additionally expire after a TTL —
// checked lazily on every lookup (an expired entry is unreachable the
// instant its TTL lapses) and swept in the background by the shared
// ttl helper, the same pattern the async job store uses. Datasets have
// an explicit lifecycle (PUT/DELETE) and do not expire; under byte
// pressure they are evicted least-recently-used.
//
// With Options.Dir set, datasets and warm cache entries persist across
// restarts: files are written atomically (temp file + rename) and
// re-verified against their digest on load, so a corrupted or
// tampered-with snapshot is rejected rather than served. A dataset
// evicted from memory under byte pressure remains addressable through
// its on-disk copy and is transparently reloaded (and re-verified) on
// the next reference.
package store

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rbac"
	"repro/internal/ttl"
)

// ErrTooLarge means a dataset's canonical encoding alone exceeds the
// store's byte budget, so admitting it could never be useful.
var ErrTooLarge = errors.New("store: dataset exceeds the store byte budget")

// Options configures a Store.
type Options struct {
	// MaxBytes is the byte budget shared by datasets and cached results;
	// least-recently-used entries are evicted beyond it. Defaults to
	// 512 MiB.
	MaxBytes int64
	// TTL is how long a cached analysis result stays servable; expired
	// entries are unreachable immediately and swept in the background.
	// Defaults to 1 hour. Datasets do not expire.
	TTL time.Duration
	// Dir, when non-empty, persists datasets and warm cache entries
	// across restarts. Files are written atomically and digest-verified
	// on load.
	Dir string
	// BaseContext stops the background sweeper when cancelled (daemon
	// drain); defaults to context.Background(). Close also stops it.
	BaseContext context.Context
	// Logf receives load-time warnings (corrupt files skipped) and
	// persistence errors; defaults to log.Printf.
	Logf func(format string, args ...any)
	// SweepInterval overrides the sweep cadence derived from TTL; tests
	// use it to prove lazy expiry alone makes entries unreachable.
	SweepInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 512 << 20
	}
	if o.TTL <= 0 {
		o.TTL = time.Hour
	}
	if o.BaseContext == nil {
		o.BaseContext = context.Background()
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = ttl.Interval(o.TTL)
	}
	return o
}

// Key addresses one cached analysis result.
type Key struct {
	// Dataset is the content digest of the analysed dataset (bare hex;
	// for two-dataset kinds like diff, both digests joined with "+").
	Dataset string
	// Fingerprint condenses the effective analysis options (see
	// Fingerprint).
	Fingerprint string
	// Kind is the endpoint kind: analyze, consolidate, suggest, diff.
	Kind string
}

// String joins the key fields into the map/file key.
func (k Key) String() string {
	return k.Dataset + "|" + k.Fingerprint + "|" + k.Kind
}

// Stats are the store's observability counters, JSON-ready for the
// /v1/stats endpoint.
type Stats struct {
	// Datasets / DatasetBytes count in-memory registered datasets.
	Datasets     int   `json:"datasets"`
	DatasetBytes int64 `json:"datasetBytes"`
	// Results / ResultBytes count in-memory cached analysis results.
	Results     int   `json:"results"`
	ResultBytes int64 `json:"resultBytes"`
	// Hits counts result lookups served without running the engine
	// (memory or warm disk entry). Misses counts engine runs. Shared
	// counts callers that piggybacked on another request's in-flight
	// computation (single-flight). Evictions counts LRU byte-budget
	// evictions; Expired counts TTL-collected results.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"singleflightShared"`
	Evictions uint64 `json:"evictions"`
	Expired   uint64 `json:"expired"`
}

// DatasetInfo summarises one registered dataset.
type DatasetInfo struct {
	Digest string     `json:"digest"`
	Bytes  int64      `json:"bytes"`
	Stats  rbac.Stats `json:"stats"`
}

// dsEntry is one registered dataset: the parsed form, which analyses
// by reference read as is, and the length of its canonical encoding,
// which the byte budget counts. The canonical bytes themselves are not
// kept; GetDataset's caller encodes them on read. An upload, a
// PutCanonical and a reload from disk all end in this one shape.
type dsEntry struct {
	digest string
	ds     *rbac.Dataset
	size   int64
	stats  rbac.Stats
	elem   *list.Element
}

// resEntry is one cached analysis result body.
type resEntry struct {
	key     string
	body    []byte
	created time.Time
	elem    *list.Element
}

// lruItem tags an LRU list element with the map it belongs to.
type lruItem struct {
	dataset bool
	key     string
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Store is the registry + cache. All state is guarded by mu; compute
// and file I/O run outside it.
type Store struct {
	opts    Options
	sweeper *ttl.Sweeper

	mu       sync.Mutex
	datasets map[string]*dsEntry
	results  map[string]*resEntry
	flights  map[string]*flight
	lru      *list.List // front = most recently used
	bytes    int64
	stats    Stats
	// delGen counts completed DeleteDataset calls per digest. A
	// single-flight compute snapshots the generations of its key's
	// digests when it starts; if any changed by the time it finishes,
	// the result is handed to its waiters but not admitted to the
	// cache — DELETE is a barrier against in-flight results of the
	// deleted snapshot becoming newly cacheable after it returns.
	delGen map[string]uint64
}

// New builds a Store and, when Dir is set, creates the layout and
// loads persisted datasets and unexpired cache entries (digest-verified;
// corrupt files are skipped with a logged warning). The only error is
// an unusable Dir.
func New(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts:     opts,
		datasets: make(map[string]*dsEntry),
		results:  make(map[string]*resEntry),
		flights:  make(map[string]*flight),
		lru:      list.New(),
		delGen:   make(map[string]uint64),
	}
	if opts.Dir != "" {
		if err := s.ensureDirs(); err != nil {
			return nil, err
		}
		s.loadAll()
	}
	s.sweeper = ttl.NewSweeper(opts.BaseContext, opts.SweepInterval, s.sweep)
	return s, nil
}

// Close stops the background sweeper. Lookups keep working (lazy
// expiry needs no goroutine); Close exists so tests and the daemon can
// shut down without leaking it.
func (s *Store) Close() { s.sweeper.Stop() }

// PutDataset registers a dataset the caller has already parsed and
// validated, returning whether it was newly created. Precondition:
// digest and size are exactly what Digest(ds) returned; nothing is
// re-hashed, so bytes from anywhere else must go through PutCanonical
// instead. Registering content that is already present refreshes its
// LRU position and reports created == false. The store retains ds and
// serves it to concurrent readers; callers must not mutate it
// afterwards.
func (s *Store) PutDataset(digest string, size int64, ds *rbac.Dataset) (created bool, err error) {
	if size > s.opts.MaxBytes {
		return false, fmt.Errorf("%w: %d canonical bytes > budget %d", ErrTooLarge, size, s.opts.MaxBytes)
	}
	s.mu.Lock()
	if e, ok := s.datasets[digest]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		return false, nil
	}
	s.insertDatasetLocked(&dsEntry{digest: digest, ds: ds, size: size, stats: ds.Stats()})
	s.mu.Unlock()
	if s.opts.Dir != "" {
		if werr := s.writeDatasetFile(digest, ds); werr != nil {
			s.opts.Logf("store: persist dataset %s: %v", digest, werr)
		}
	}
	return true, nil
}

// insertDatasetLocked registers the entry and applies the byte budget.
func (s *Store) insertDatasetLocked(e *dsEntry) {
	e.elem = s.lru.PushFront(lruItem{dataset: true, key: e.digest})
	s.datasets[e.digest] = e
	s.bytes += e.size
	s.evictLocked()
}

// GetDataset resolves a (normalized, see ParseDigest) digest to the
// parsed dataset and the length of its canonical encoding. Analyses by
// reference ignore the length; GET and /raw announce it before
// streaming ds.WriteCanonical, whose bytes hash to digest. A dataset
// evicted from memory but persisted on disk is reloaded and
// digest-verified transparently. The dataset is shared: callers must
// not mutate it.
func (s *Store) GetDataset(digest string) (ds *rbac.Dataset, size int64, ok bool) {
	s.mu.Lock()
	if e, ok := s.datasets[digest]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		return e.ds, e.size, true
	}
	s.mu.Unlock()
	if s.opts.Dir == "" {
		return nil, 0, false
	}
	e, err := s.loadDatasetFile(digest)
	if err != nil || e == nil {
		if err != nil {
			s.opts.Logf("store: load dataset %s: %v", digest, err)
		}
		return nil, 0, false
	}
	s.mu.Lock()
	// Another goroutine may have raced the reload; keep the first.
	if have, ok := s.datasets[digest]; ok {
		s.lru.MoveToFront(have.elem)
		e = have
	} else {
		s.insertDatasetLocked(e)
	}
	s.mu.Unlock()
	return e.ds, e.size, true
}

// DeleteDataset removes a dataset from memory and disk. It reports
// whether anything was deleted.
//
// Deletion races an in-flight single-flight compute over the same
// digest with defined semantics: the compute (which resolved the
// dataset before the delete) finishes and its waiters get the result,
// but the result is not admitted to the cache — by the time
// DeleteDataset returns, the digest's delete generation has advanced,
// and the flight's admission check sees it. The disk copy is removed
// before the generation bump so a post-delete reload cannot resurrect
// the snapshot either.
func (s *Store) DeleteDataset(digest string) bool {
	var removedFile bool
	if s.opts.Dir != "" {
		var err error
		if removedFile, err = s.removeDatasetFile(digest); err != nil {
			s.opts.Logf("store: delete dataset file %s: %v", digest, err)
		}
	}
	s.mu.Lock()
	e, ok := s.datasets[digest]
	if ok {
		s.removeDatasetLocked(e)
	}
	if ok || removedFile {
		s.delGen[digest]++
	}
	s.mu.Unlock()
	return ok || removedFile
}

// genLocked folds the delete generations of every digest a cache key
// depends on (diff keys join two digests with "+").
func (s *Store) genLocked(key Key) uint64 {
	var gen uint64
	for _, d := range strings.Split(key.Dataset, "+") {
		gen += s.delGen[d]
	}
	return gen
}

// PutCanonical registers a dataset from its canonical bytes — the
// fleet replication/fetch path, where the bytes arrived from a peer
// already canonicalized. The bytes are verified against the expected
// digest (a corrupt transfer is rejected, never stored), parsed by the
// decoder every upload goes through, and then dropped: the store keeps
// the parsed dataset only.
func (s *Store) PutCanonical(digest string, raw []byte) (created bool, err error) {
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return false, fmt.Errorf("store: bytes hash to %s, not the expected %s", got, digest)
	}
	if int64(len(raw)) > s.opts.MaxBytes {
		return false, fmt.Errorf("%w: %d canonical bytes > budget %d", ErrTooLarge, len(raw), s.opts.MaxBytes)
	}
	ds, err := parseCanonical(raw)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	return s.PutDataset(digest, int64(len(raw)), ds)
}

// parseCanonical parses verified bytes and checks that they are the
// canonical encoding of the dataset they parse to. The store keeps only
// the parsed dataset and re-encodes it on read, so bytes in any other
// form would come back hashing to something else.
func parseCanonical(raw []byte) (*rbac.Dataset, error) {
	ds, err := rbac.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("parse verified snapshot: %w", err)
	}
	rest := matchWriter(raw)
	if _, err := ds.WriteCanonical(&rest); err != nil || len(rest) != 0 {
		return nil, errors.New("verified snapshot is not in canonical form")
	}
	return ds, nil
}

// matchWriter accepts exactly its own bytes, in order, consuming them
// as they are written.
type matchWriter []byte

func (m *matchWriter) Write(p []byte) (int, error) {
	if len(p) > len(*m) || !bytes.Equal(p, (*m)[:len(p)]) {
		return 0, errors.New("bytes differ")
	}
	*m = (*m)[len(p):]
	return len(p), nil
}

func (s *Store) removeDatasetLocked(e *dsEntry) {
	s.lru.Remove(e.elem)
	delete(s.datasets, e.digest)
	s.bytes -= e.size
}

// ListDatasets returns the registered datasets sorted by digest.
func (s *Store) ListDatasets() []DatasetInfo {
	s.mu.Lock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for _, e := range s.datasets {
		out = append(out, DatasetInfo{Digest: e.digest, Bytes: e.size, Stats: e.stats})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Result serves the cached body for key, or runs compute exactly once
// to fill it. Concurrent callers with the same key share one
// computation: the first becomes the leader, the rest wait for its
// outcome. hit reports whether the body came from cache (memory or
// warm disk entry, or a shared flight) rather than this caller's own
// compute. Errors are never cached; if the leader fails because its
// own request was cancelled or timed out, a still-live waiter retries
// as the new leader instead of inheriting the foreign cancellation.
func (s *Store) Result(ctx context.Context, key Key, compute func(ctx context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	keyStr := key.String()
	for {
		s.mu.Lock()
		if e, ok := s.results[keyStr]; ok {
			if ttl.Expired(e.created, time.Now(), s.opts.TTL) {
				s.removeResultLocked(e)
				s.stats.Expired++
			} else {
				s.lru.MoveToFront(e.elem)
				s.stats.Hits++
				body := e.body
				s.mu.Unlock()
				return body, true, nil
			}
		}
		if f, ok := s.flights[keyStr]; ok {
			s.stats.Shared++
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.body, true, nil
			}
			if (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue // the leader's request died, not ours: take over
			}
			return nil, false, f.err
		}
		f := &flight{done: make(chan struct{})}
		s.flights[keyStr] = f
		gen := s.genLocked(key)
		s.mu.Unlock()

		body, fromDisk := s.loadWarmResult(key, keyStr)
		if body == nil {
			body, err = compute(ctx)
		}
		s.mu.Lock()
		delete(s.flights, keyStr)
		// A delete of any underlying dataset while this flight ran
		// makes the result non-admissible: waiters still get it, the
		// cache does not.
		stale := s.genLocked(key) != gen
		if err == nil {
			if fromDisk {
				s.stats.Hits++
			} else {
				s.stats.Misses++
			}
			if _, ok := s.results[keyStr]; !ok && !stale && int64(len(body)) <= s.opts.MaxBytes {
				e := &resEntry{key: keyStr, body: body, created: time.Now()}
				e.elem = s.lru.PushFront(lruItem{key: keyStr})
				s.results[keyStr] = e
				s.bytes += int64(len(body))
				s.evictLocked()
			}
		}
		s.mu.Unlock()
		f.body, f.err = body, err
		close(f.done)
		if err == nil && !fromDisk && !stale && s.opts.Dir != "" {
			if werr := s.writeResultFile(key, keyStr, body); werr != nil {
				s.opts.Logf("store: persist result %s: %v", keyStr, werr)
			}
		}
		return body, fromDisk, err
	}
}

// loadWarmResult consults the persisted cache for an unexpired entry.
func (s *Store) loadWarmResult(key Key, keyStr string) (body []byte, ok bool) {
	if s.opts.Dir == "" {
		return nil, false
	}
	body, err := s.loadResultFile(key, keyStr)
	if err != nil {
		s.opts.Logf("store: load result %s: %v", keyStr, err)
		return nil, false
	}
	return body, body != nil
}

func (s *Store) removeResultLocked(e *resEntry) {
	s.lru.Remove(e.elem)
	delete(s.results, e.key)
	s.bytes -= int64(len(e.body))
	if s.opts.Dir != "" {
		// Collect the persisted copy too, outside the hot path's way:
		// the file is keyed deterministically, so a stale remove is safe.
		path := s.resultPath(e.key)
		go func() { _ = os.Remove(path) }()
	}
}

// evictLocked enforces the byte budget, least-recently-used first. An
// evicted dataset's disk copy (when persistence is on) is kept, so the
// digest stays addressable via reload; without persistence the
// reference dangles and the server reports it not_found.
func (s *Store) evictLocked() {
	for s.bytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		item := back.Value.(lruItem)
		if item.dataset {
			s.removeDatasetLocked(s.datasets[item.key])
		} else {
			e := s.results[item.key]
			s.lru.Remove(e.elem)
			delete(s.results, e.key)
			s.bytes -= int64(len(e.body))
		}
		s.stats.Evictions++
	}
}

// sweep collects expired cache entries; it is the ttl.Sweeper's
// callback. Lazy expiry in Result covers re-requested keys; the sweep
// bounds memory for abandoned ones.
func (s *Store) sweep(now time.Time) {
	s.mu.Lock()
	for _, e := range s.results {
		if ttl.Expired(e.created, now, s.opts.TTL) {
			s.removeResultLocked(e)
			s.stats.Expired++
		}
	}
	s.mu.Unlock()
}

// Stats snapshots the counters and byte accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Datasets = len(s.datasets)
	st.Results = len(s.results)
	for _, e := range s.datasets {
		st.DatasetBytes += e.size
	}
	for _, e := range s.results {
		st.ResultBytes += int64(len(e.body))
	}
	return st
}

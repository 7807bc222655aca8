package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rbac"
)

// testDataset builds a small distinct dataset per tag.
func testDataset(t *testing.T, tag string, roles int) *rbac.Dataset {
	t.Helper()
	ds := rbac.NewDataset()
	for u := 0; u < 4; u++ {
		if err := ds.AddUser(rbac.UserID(fmt.Sprintf("%s-u%d", tag, u))); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 3; p++ {
		if err := ds.AddPermission(rbac.PermissionID(fmt.Sprintf("%s-p%d", tag, p))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < roles; r++ {
		id := rbac.RoleID(fmt.Sprintf("%s-r%d", tag, r))
		if err := ds.AddRole(id); err != nil {
			t.Fatal(err)
		}
		_ = ds.AssignUser(id, rbac.UserID(fmt.Sprintf("%s-u%d", tag, r%4)))
		_ = ds.AssignPermission(id, rbac.PermissionID(fmt.Sprintf("%s-p%d", tag, r%3)))
	}
	return ds
}

// put digests ds and registers it the way a local upload does.
func put(s *Store, ds *rbac.Dataset) (digest string, created bool, err error) {
	digest, size, err := Digest(ds)
	if err != nil {
		return "", false, err
	}
	created, err = s.PutDataset(digest, size, ds)
	return digest, created, err
}

// served is what a reader of digest's canonical encoding receives:
// GetDataset's dataset, streamed, checked against GetDataset's length.
func served(t *testing.T, s *Store, digest string) ([]byte, bool) {
	t.Helper()
	ds, size, ok := s.GetDataset(digest)
	if !ok {
		return nil, false
	}
	var buf bytes.Buffer
	if n, err := ds.WriteCanonical(&buf); err != nil || n != size {
		t.Fatalf("WriteCanonical = %d, %v; GetDataset reported %d bytes", n, err, size)
	}
	return buf.Bytes(), true
}

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestDigestDeterministicAndParse(t *testing.T) {
	ds := testDataset(t, "a", 5)
	d1, canon1, err := DigestOf(ds)
	if err != nil {
		t.Fatal(err)
	}
	d2, canon2, err := DigestOf(ds.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || !bytes.Equal(canon1, canon2) {
		t.Fatalf("digest not deterministic across clones: %s vs %s", d1, d2)
	}
	for _, in := range []string{d1, "sha256:" + d1, "SHA256:" + strings.ToUpper(d1)} {
		got, err := ParseDigest(in)
		if err != nil || got != d1 {
			t.Errorf("ParseDigest(%q) = %q, %v; want %q", in, got, err, d1)
		}
	}
	for _, in := range []string{"", "abc", d1 + "ff", strings.Replace(d1, d1[:1], "z", 1)} {
		if _, err := ParseDigest(in); err == nil {
			t.Errorf("ParseDigest(%q) accepted invalid digest", in)
		}
	}
}

func TestPutGetDeleteDataset(t *testing.T) {
	s := newStore(t, Options{})
	ds := testDataset(t, "a", 5)
	digest, created, err := put(s, ds)
	if err != nil || !created {
		t.Fatalf("first put: created=%v err=%v", created, err)
	}
	if _, created, err = put(s, ds.Clone()); err != nil || created {
		t.Fatalf("identical re-put: created=%v err=%v, want false nil", created, err)
	}
	got, size, ok := s.GetDataset(digest)
	if !ok || got.NumRoles() != 5 || size == 0 {
		t.Fatalf("GetDataset: ok=%v", ok)
	}
	if infos := s.ListDatasets(); len(infos) != 1 || infos[0].Digest != digest {
		t.Fatalf("ListDatasets = %+v", infos)
	}
	if !s.DeleteDataset(digest) {
		t.Fatal("delete reported nothing removed")
	}
	if _, _, ok := s.GetDataset(digest); ok {
		t.Fatal("deleted dataset still resolvable")
	}
	if s.DeleteDataset(digest) {
		t.Fatal("second delete reported success")
	}
}

func TestResultSingleFlight(t *testing.T) {
	s := newStore(t, Options{})
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}
	var computes atomic.Int64
	const n = 32
	var (
		wg     sync.WaitGroup
		bodies [n][]byte
		errs   [n]error
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bodies[i], _, errs[i] = s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return []byte(`{"v":1}`), nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("engine invoked %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || !bytes.Equal(bodies[i], []byte(`{"v":1}`)) {
			t.Fatalf("caller %d: body %q err %v", i, bodies[i], errs[i])
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Shared != n-1 {
		t.Errorf("singleflight shared = %d, want %d", st.Shared, n-1)
	}
}

func TestResultHitCountsAndBytesIdentical(t *testing.T) {
	s := newStore(t, Options{})
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}
	first, hit, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte(`{"report":"x"}`), nil
	})
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	second, hit, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Fatal("engine re-invoked on cached key")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached body differs: %q vs %q", first, second)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestResultErrorsNotCached(t *testing.T) {
	s := newStore(t, Options{})
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}
	boom := errors.New("boom")
	if _, _, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	ran := false
	if _, _, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		ran = true
		return []byte(`{}`), nil
	}); err != nil || !ran {
		t.Fatalf("recompute after error: ran=%v err=%v", ran, err)
	}
}

func TestWaiterTakesOverAfterLeaderCancellation(t *testing.T) {
	s := newStore(t, Options{})
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := s.Result(leaderCtx, key, func(ctx context.Context) ([]byte, error) {
			close(leaderStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want canceled", err)
		}
	}()
	<-leaderStarted
	waiterBody := make(chan []byte, 1)
	go func() {
		body, _, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
			return []byte(`{"v":2}`), nil
		})
		if err != nil {
			t.Errorf("waiter err = %v", err)
		}
		waiterBody <- body
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancelLeader()
	<-leaderDone
	select {
	case body := <-waiterBody:
		if !bytes.Equal(body, []byte(`{"v":2}`)) {
			t.Fatalf("waiter body = %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered from the leader's cancellation")
	}
}

// TestLazyExpiryBeforeJanitor proves the shared lazy-expiry contract:
// with the sweeper pinned to an hour, an entry past its TTL is already
// unreachable long before any sweep fires.
func TestLazyExpiryBeforeJanitor(t *testing.T) {
	s := newStore(t, Options{TTL: 20 * time.Millisecond, SweepInterval: time.Hour})
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}
	if _, _, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte(`{}`), nil
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	ran := false
	_, hit, err := s.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		ran = true
		return []byte(`{}`), nil
	})
	if err != nil || hit || !ran {
		t.Fatalf("expired entry served before the janitor fired: hit=%v ran=%v err=%v", hit, ran, err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("expired counter = %d, want 1", st.Expired)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	a := testDataset(t, "a", 4)
	_, canonical, err := DigestOf(a)
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits roughly two datasets of this shape.
	s := newStore(t, Options{MaxBytes: int64(len(canonical))*2 + 64})
	digestA, _, err := put(s, a)
	if err != nil {
		t.Fatal(err)
	}
	digestB, _, err := put(s, testDataset(t, "b", 4))
	if err != nil {
		t.Fatal(err)
	}
	// Touch A so B is the least recently used.
	if _, _, ok := s.GetDataset(digestA); !ok {
		t.Fatal("A missing before eviction")
	}
	if _, _, err := put(s, testDataset(t, "c", 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.GetDataset(digestB); ok {
		t.Fatal("least-recently-used dataset survived over-budget insert")
	}
	if _, _, ok := s.GetDataset(digestA); !ok {
		t.Fatal("recently-touched dataset was evicted")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("eviction counter did not move")
	}
	if st.DatasetBytes > s.opts.MaxBytes {
		t.Errorf("dataset bytes %d exceed budget %d", st.DatasetBytes, s.opts.MaxBytes)
	}

	// A dataset bigger than the whole budget is rejected outright.
	huge := newStore(t, Options{MaxBytes: 16})
	if _, _, err := put(huge, a); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized put err = %v, want ErrTooLarge", err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key{Dataset: "d", Fingerprint: "f", Kind: "analyze"}

	s1 := newStore(t, Options{Dir: dir})
	digest, _, err := put(s1, testDataset(t, "a", 5))
	if err != nil {
		t.Fatal(err)
	}
	body1, _, err := s1.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte(`{"warm":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := newStore(t, Options{Dir: dir})
	ds, size, ok := s2.GetDataset(digest)
	if !ok || ds.NumRoles() != 5 {
		t.Fatalf("dataset did not survive restart (ok=%v)", ok)
	}
	if d, _, _ := DigestOf(ds); d != digest {
		t.Fatalf("reloaded dataset re-digests to %s, want %s", d, digest)
	}
	if size == 0 {
		t.Fatal("canonical bytes lost across restart")
	}
	body2, hit, err := s2.Result(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Fatal("engine re-invoked despite warm persisted cache entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(body1, body2) {
		t.Fatalf("warm cache entry: hit=%v err=%v body=%q want %q", hit, err, body2, body1)
	}
}

func TestCorruptedFilesRejectedAtLoad(t *testing.T) {
	dir := t.TempDir()
	s1 := newStore(t, Options{Dir: dir})
	digest, _, err := put(s1, testDataset(t, "a", 5))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Flip bytes in the persisted snapshot: same filename, new content.
	path := filepath.Join(dir, "datasets", digest+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(raw, []byte("a-r0"), []byte("a-rX"), 1)
	if bytes.Equal(corrupted, raw) {
		t.Fatal("corruption did not change the file")
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	var mu sync.Mutex
	s2 := newStore(t, Options{Dir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if _, _, ok := s2.GetDataset(digest); ok {
		t.Fatal("digest-mismatched snapshot was served")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, line := range logged {
		if strings.Contains(line, "digest mismatch") {
			found = true
		}
	}
	if !found {
		t.Errorf("no digest-mismatch warning logged; got %q", logged)
	}
}

func TestDatasetReloadedFromDiskAfterEviction(t *testing.T) {
	dir := t.TempDir()
	a := testDataset(t, "a", 4)
	_, canonical, err := DigestOf(a)
	if err != nil {
		t.Fatal(err)
	}
	s := newStore(t, Options{Dir: dir, MaxBytes: int64(len(canonical)) + 32})
	digestA, _, err := put(s, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := put(s, testDataset(t, "b", 4)); err != nil {
		t.Fatal(err)
	}
	// A no longer fits in memory, but its persisted copy keeps the
	// digest addressable.
	ds, _, ok := s.GetDataset(digestA)
	if !ok || ds.NumRoles() != 4 {
		t.Fatalf("evicted-but-persisted dataset not reloadable (ok=%v)", ok)
	}
}

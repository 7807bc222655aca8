package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// TestDeleteInvalidatesInflightResult pins the DELETE vs single-flight
// semantics: a compute that started before the delete finishes and
// hands its body to the caller, but the result is not admitted to the
// cache (memory or disk) — a later identical request recomputes.
func TestDeleteInvalidatesInflightResult(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	ds := testDataset(t, "del", 6)
	digest, _, err := put(s, ds)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Dataset: digest, Fingerprint: "fp", Kind: "analyze"}

	started := make(chan struct{})
	release := make(chan struct{})
	var (
		wg   sync.WaitGroup
		body []byte
		hit  bool
		rerr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, hit, rerr = s.Result(context.Background(), key, func(ctx context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte(`{"slow":true}`), nil
		})
	}()
	<-started
	if !s.DeleteDataset(digest) {
		t.Fatal("DeleteDataset reported nothing deleted")
	}
	close(release)
	wg.Wait()

	if rerr != nil || hit {
		t.Fatalf("in-flight Result = hit=%v err=%v, want computed result", hit, rerr)
	}
	if string(body) != `{"slow":true}` {
		t.Fatalf("in-flight caller got %q, want the computed body", body)
	}

	// The result must not have been cached: a repeat request computes
	// again rather than serving the deleted snapshot's result.
	recomputed := false
	body2, hit2, err := s.Result(context.Background(), key, func(ctx context.Context) ([]byte, error) {
		recomputed = true
		return []byte(`{"fresh":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed || hit2 {
		t.Fatalf("post-delete Result served stale cache (hit=%v recomputed=%v body=%q)", hit2, recomputed, body2)
	}
}

// TestDeleteRaceManyFlights hammers the same digest with concurrent
// computes and deletes under the race detector; afterwards no cached
// result may survive the final delete's barrier.
func TestDeleteRaceManyFlights(t *testing.T) {
	s := newStore(t, Options{})
	ds := testDataset(t, "race", 4)
	digest, _, err := put(s, ds)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := Key{Dataset: digest, Fingerprint: fmt.Sprintf("fp%d", i), Kind: "analyze"}
			for j := 0; j < 20; j++ {
				_, _, _ = s.Result(context.Background(), key, func(ctx context.Context) ([]byte, error) {
					return []byte("{}"), nil
				})
			}
		}(i)
	}
	for j := 0; j < 20; j++ {
		s.DeleteDataset(digest)
		_, _, _ = put(s, ds)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// TestPutCanonical covers the peer-transfer ingest path: digest
// verification, rejection of corrupt bytes, idempotent re-put, and
// persistence.
func TestPutCanonical(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Options{Dir: dir})
	ds := testDataset(t, "canon", 5)
	digest, canonical, err := DigestOf(ds)
	if err != nil {
		t.Fatal(err)
	}

	created, err := s.PutCanonical(digest, canonical)
	if err != nil || !created {
		t.Fatalf("PutCanonical = created=%v err=%v, want created", created, err)
	}
	created, err = s.PutCanonical(digest, canonical)
	if err != nil || created {
		t.Fatalf("repeat PutCanonical = created=%v err=%v, want not created", created, err)
	}
	got, raw, ok := s.GetDataset(digest)
	if !ok || got == nil || string(raw) != string(canonical) {
		t.Fatalf("GetDataset after PutCanonical: ok=%v", ok)
	}
	if _, err := os.Stat(s.datasetPath(digest)); err != nil {
		t.Fatalf("PutCanonical did not persist: %v", err)
	}

	// Corrupt bytes must be rejected outright.
	bad := append([]byte(nil), canonical...)
	bad[0] ^= 0xff
	if _, err := s.PutCanonical(digest, bad); err == nil {
		t.Fatal("PutCanonical accepted bytes not hashing to the digest")
	}
	// Bytes that hash correctly but are not a dataset must fail parse,
	// not get stored.
	junk := []byte("not json")
	sum := sha256.Sum256(junk)
	if _, err := s.PutCanonical(hex.EncodeToString(sum[:]), junk); err == nil {
		t.Fatal("PutCanonical accepted unparsable bytes")
	}
}

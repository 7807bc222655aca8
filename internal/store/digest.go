package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/rbac"
)

// Digest returns a dataset's content digest, the lowercase hex SHA-256
// of its canonical rbac JSON encoding (entities in insertion order,
// edges sorted), and the encoding's length. Two uploads carrying the
// same entities and edges in the same insertion order therefore map to
// the same digest, however their edge lists were ordered on the wire.
// The encoding streams through the hash (rbac.Dataset.WriteCanonical)
// and is never held whole.
func Digest(ds *rbac.Dataset) (digest string, size int64, err error) {
	h := sha256.New()
	if size, err = ds.WriteCanonical(h); err != nil {
		return "", 0, fmt.Errorf("store: canonicalize dataset: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}

// DigestOf is Digest for a caller that also wants the canonical bytes:
// it returns the same digest alongside ds.MarshalJSON's output, the
// exact bytes hashed. json.Marshal(ds) would only compact and copy that
// already-compact, already-escaped encoding, and yields the same bytes.
func DigestOf(ds *rbac.Dataset) (digest string, canonical []byte, err error) {
	canonical, err = ds.MarshalJSON()
	if err != nil {
		return "", nil, fmt.Errorf("store: canonicalize dataset: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:]), canonical, nil
}

// ParseDigest normalizes a client-supplied digest reference: an
// optional "sha256:" prefix followed by 64 hex characters, case
// insensitive. It returns the bare lowercase hex form used as the
// store key and in URLs.
func ParseDigest(s string) (string, error) {
	d := strings.TrimPrefix(strings.TrimSpace(strings.ToLower(s)), "sha256:")
	if len(d) != sha256.Size*2 {
		return "", fmt.Errorf("store: digest %q: want 64 hex characters (optionally prefixed sha256:)", s)
	}
	if _, err := hex.DecodeString(d); err != nil {
		return "", fmt.Errorf("store: digest %q is not hex", s)
	}
	return d, nil
}

// Fingerprint hashes an options value (its deterministic JSON encoding)
// together with any extra discriminators into a short hex key. The
// server uses it to derive the options part of a cache key from the
// shared core.Options wire schema plus discriminators, such as the
// planner knobs, that live outside it.
func Fingerprint(v any, extra ...string) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: fingerprint options: %w", err)
	}
	h := sha256.New()
	h.Write(b)
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashKey derives the filesystem name of a cache key.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

package rbac

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// streamFixture renders a moderately sized dataset as JSON.
func streamFixture(t testing.TB, roles, users int) (*Dataset, []byte) {
	t.Helper()
	ds := NewDataset()
	for u := 0; u < users; u++ {
		ds.EnsureUser(UserID(string(rune('a'+u%26)) + string(rune('a'+u/26%26)) + string(rune('a'+u/676))))
	}
	for r := 0; r < roles; r++ {
		role := RoleID("role" + string(rune('a'+r%26)) + string(rune('a'+r/26%26)) + string(rune('a'+r/676)))
		ds.EnsureRole(role)
		for u := r % users; u < users; u += 7 {
			_ = ds.AssignUser(role, ds.User(u))
		}
	}
	ds.EnsurePermission("p0")
	for r := 0; r < roles; r += 3 {
		_ = ds.AssignPermission(ds.Role(r), "p0")
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return ds, buf.Bytes()
}

// TestReadJSONStreamMatchesBuffered: the decoder must land on the same
// dataset as the encoding/json reference for a full round-tripped
// export.
func TestReadJSONStreamMatchesBuffered(t *testing.T) {
	_, raw := streamFixture(t, 120, 80)
	buffered, err := decodeReference(raw)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ReadJSONStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	bj, sj := marshal(t, buffered), marshal(t, streamed)
	if !bytes.Equal(bj, sj) {
		t.Fatalf("streamed decode differs from buffered decode:\n  buffered: %.200s\n  streamed: %.200s", bj, sj)
	}
}

// forwardRefDoc lists its edges before the entities they name.
const forwardRefDoc = `{
	"userAssignments": [{"role":"r1","user":"u1"},{"role":"r2","user":"u1"}],
	"permissionAssignments": [{"role":"r1","permission":"p1"}],
	"users": ["u1"], "roles": ["r1","r2"], "permissions": ["p1"]
}`

// unknownEdgeDoc has an edge to a role that never appears.
const unknownEdgeDoc = `{"users":["u1"],"roles":["r1"],"permissions":[],
	"userAssignments":[{"role":"ghost","user":"u1"}],"permissionAssignments":[]}`

// TestReadJSONStreamForwardReferences: edges may precede the entity
// arrays in the document; the pending buffer must resolve them.
func TestReadJSONStreamForwardReferences(t *testing.T) {
	ds, err := ReadJSONStream(strings.NewReader(forwardRefDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !ds.HasAssignment("r1", "u1") || !ds.HasAssignment("r2", "u1") || !ds.HasPermission("r1", "p1") {
		t.Fatalf("forward-referenced edges missing: %+v", ds.Stats())
	}
}

// TestReadJSONStreamRejectsTruncated: a body cut off mid-stream must
// error, never yield a partial dataset.
func TestReadJSONStreamRejectsTruncated(t *testing.T) {
	_, raw := streamFixture(t, 40, 30)
	for _, cut := range []int{len(raw) / 4, len(raw) / 2, len(raw) - 2} {
		if _, err := ReadJSONStream(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated at %d/%d bytes decoded without error", cut, len(raw))
		}
	}
}

// TestReadJSONStreamRejectsUnknownEdges: an edge naming an entity that
// never appears must fail validation at the end of the stream.
func TestReadJSONStreamRejectsUnknownEdges(t *testing.T) {
	if _, err := ReadJSONStream(strings.NewReader(unknownEdgeDoc)); err == nil {
		t.Fatal("edge to unknown role decoded without error")
	}
}

// TestReadJSONDepthLimit: nesting is held to encoding/json's limit of
// 10000 levels, counting the top-level object, in skipped fields and
// inside edges alike; the reference decoder draws the line at the same
// depth. The inputs are too large to be useful fuzz seeds.
func TestReadJSONDepthLimit(t *testing.T) {
	edge := `{"users":["u"],"roles":["r"],"userAssignments":[{"role":"r","user":"u","x":`
	for _, tc := range []struct {
		name string
		doc  string
		ok   bool
	}{
		{"skipped field at the limit", `{"x":` + nested(maxDepth-1, "") + `}`, true},
		{"skipped field past the limit", `{"x":` + nested(maxDepth, "") + `}`, false},
		{"edge at the limit", edge + nested(maxDepth-3, "") + `}]}`, true},
		{"edge past the limit", edge + nested(maxDepth-2, "") + `}]}`, false},
	} {
		_, err := ReadJSON(strings.NewReader(tc.doc))
		_, refErr := decodeReference([]byte(tc.doc))
		if (err == nil) != tc.ok || (refErr == nil) != tc.ok {
			t.Errorf("%s: ReadJSON err %v, reference err %v, want ok=%v", tc.name, err, refErr, tc.ok)
		}
	}
}

// paddedReader serves a JSON document logically embedded in a much
// larger byte stream: leading whitespace inflates the wire size without
// changing the decoded value. It never materialises the padding as one
// allocation — each Read fills from a counter — so any large allocation
// observed by the caller belongs to the decoder under test.
type paddedReader struct {
	pad int
	doc io.Reader
}

func (p *paddedReader) Read(b []byte) (int, error) {
	if p.pad > 0 {
		n := len(b)
		if n > p.pad {
			n = p.pad
		}
		for i := 0; i < n; i++ {
			b[i] = ' '
		}
		p.pad -= n
		return n, nil
	}
	return p.doc.Read(b)
}

// TestReadJSONStreamBoundedMemory is the streaming-ingest regression
// guard: decoding a document whose wire size is tens of megabytes must
// allocate in proportion to the decoded entities, not the wire size.
// 48 MiB of leading whitespace around a small dataset has to decode in
// well under a tenth of that allocation budget — a buffered decoder
// (io.ReadAll + Unmarshal) fails this immediately.
func TestReadJSONStreamBoundedMemory(t *testing.T) {
	_, raw := streamFixture(t, 40, 30)
	const pad = 48 << 20

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, err := ReadJSONStream(&paddedReader{pad: pad, doc: bytes.NewReader(raw)})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRoles() != 40 {
		t.Fatalf("decoded %d roles, want 40", ds.NumRoles())
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > pad/10 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes — decoder is buffering the body", pad+len(raw), allocated)
	}
}

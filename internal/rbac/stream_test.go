package rbac

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
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

// TestReadJSONUnsortedRows: the decoder appends edges to their rows in
// document order and sorts each row once, so one role whose edges
// arrive in descending order, each twice, and its user edges ahead of
// the entities they name, must decode to the dataset the canonically
// ordered export gives.
func TestReadJSONUnsortedRows(t *testing.T) {
	const n = 300
	canon := NewDataset()
	canon.EnsureRole("r")
	for i := 0; i < n; i++ {
		u, p := UserID(fmt.Sprintf("u%03d", i)), PermissionID(fmt.Sprintf("p%03d", i))
		canon.EnsureUser(u)
		canon.EnsurePermission(p)
		if err := canon.AssignUser("r", u); err != nil {
			t.Fatal(err)
		}
		if err := canon.AssignPermission("r", p); err != nil {
			t.Fatal(err)
		}
	}
	want := marshal(t, canon)

	var users, perms, userEdges, permEdges []string
	for i := 0; i < n; i++ {
		users = append(users, fmt.Sprintf(`"u%03d"`, i))
		perms = append(perms, fmt.Sprintf(`"p%03d"`, i))
	}
	for pass := 0; pass < 2; pass++ {
		for i := n - 1; i >= 0; i-- {
			userEdges = append(userEdges, fmt.Sprintf(`{"role":"r","user":"u%03d"}`, i))
			permEdges = append(permEdges, fmt.Sprintf(`{"role":"r","permission":"p%03d"}`, i))
		}
	}
	doc := `{"userAssignments":[` + strings.Join(userEdges, ",") + `],` +
		`"users":[` + strings.Join(users, ",") + `],"roles":["r"],` +
		`"permissions":[` + strings.Join(perms, ",") + `],` +
		`"permissionAssignments":[` + strings.Join(permEdges, ",") + `]}`

	got, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g := marshal(t, got); !bytes.Equal(g, want) {
		t.Fatalf("unsorted rows decoded to\n  %.300s\nwant\n  %.300s", g, want)
	}
	if got.NumUserAssignments() != n || got.NumPermissionAssignments() != n {
		t.Fatalf("decoded %d user and %d permission edges, want %d each",
			got.NumUserAssignments(), got.NumPermissionAssignments(), n)
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

// oddDataset holds IDs that take encoding/json's escaping and
// unquoting paths: HTML characters, line separators, invalid UTF-8,
// quotes, backslashes, control bytes and multi-byte runes.
func oddDataset(t testing.TB) *Dataset {
	t.Helper()
	d := NewDataset()
	for i, id := range []string{
		"<script>", "a>b", "x&y", "line\u2028sep", "para\u2029sep",
		"bad\xffutf8", "\xc3", `quote"back\slash`, "tab\tnl\n", "\x00ctl\x1f", "é✓🙂",
	} {
		role, user, perm := RoleID("r"+id), UserID("u"+id), PermissionID("p"+id)
		d.EnsureRole(role)
		d.EnsureUser(user)
		d.EnsurePermission(perm)
		if err := d.AssignUser(role, user); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := d.AssignPermission(role, perm); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// TestReadJSONChunkedReaders: the scanner refills its buffer wherever
// the reader stops, so a refill may split a literal, an escape or a
// number anywhere, and an ID may be longer than the buffer. Whatever
// the chunking, the dataset must be the one a whole-buffer read gives,
// and a reader error part-way through must reach the caller.
func TestReadJSONChunkedReaders(t *testing.T) {
	_, fixture := streamFixture(t, 120, 80)
	var odd bytes.Buffer
	if err := oddDataset(t).WriteJSON(&odd); err != nil {
		t.Fatal(err)
	}
	plainID := strings.Repeat("p", 40<<10)
	escapedID := strings.Repeat(`\u00e9\n\"`, 40<<10/10)
	long := `{"users":["` + plainID + `","` + escapedID + `"],"roles":["r"],` +
		`"userAssignments":[{"role":"r","user":"` + plainID + `"},{"role":"r","user":"` + escapedID + `"}]}`

	for _, doc := range []struct {
		name string
		raw  []byte
	}{{"fixture", fixture}, {"odd IDs", odd.Bytes()}, {"IDs longer than the buffer", []byte(long)}} {
		whole, err := ReadJSON(bytes.NewReader(doc.raw))
		if err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		want := marshal(t, whole)
		ref, err := decodeReference(doc.raw)
		if err != nil {
			t.Fatalf("%s: reference: %v", doc.name, err)
		}
		if !bytes.Equal(marshal(t, ref), want) {
			t.Fatalf("%s: ReadJSON differs from the reference decode", doc.name)
		}
		for _, rd := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{{"OneByteReader", iotest.OneByteReader}, {"HalfReader", iotest.HalfReader}, {"DataErrReader", iotest.DataErrReader}} {
			got, err := ReadJSON(rd.wrap(bytes.NewReader(doc.raw)))
			if err != nil {
				t.Fatalf("%s through %s: %v", doc.name, rd.name, err)
			}
			if !bytes.Equal(marshal(t, got), want) {
				t.Fatalf("%s through %s: dataset differs from a whole-buffer read", doc.name, rd.name)
			}
		}
	}

	errReset := errors.New("connection reset")
	_, err := ReadJSON(io.MultiReader(bytes.NewReader(fixture[:len(fixture)/2]), iotest.ErrReader(errReset)))
	if !errors.Is(err, errReset) {
		t.Fatalf("reader error part-way through: got %v, want it to wrap %v", err, errReset)
	}
}

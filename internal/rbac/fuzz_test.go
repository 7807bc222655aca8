package rbac

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// datasetJSON is the dataset schema as a struct, the form MarshalJSON
// and ReadJSON were once written against with encoding/json; the two
// reference codecs below use it.
type datasetJSON struct {
	Users           []UserID       `json:"users"`
	Roles           []RoleID       `json:"roles"`
	Permissions     []PermissionID `json:"permissions"`
	UserAssignments []userEdgeJSON `json:"userAssignments"`
	PermAssignments []permEdgeJSON `json:"permissionAssignments"`
}

type userEdgeJSON struct {
	Role RoleID `json:"role"`
	User UserID `json:"user"`
}

type permEdgeJSON struct {
	Role       RoleID       `json:"role"`
	Permission PermissionID `json:"permission"`
}

// encodeReference is the reflective encoding MarshalJSON replaced, kept
// as the differential oracle for it: every persisted digest so far was
// computed over these bytes.
func encodeReference(d *Dataset) ([]byte, error) {
	out := datasetJSON{
		Users:           d.Users(),
		Roles:           d.Roles(),
		Permissions:     d.Permissions(),
		UserAssignments: make([]userEdgeJSON, 0, d.NumUserAssignments()),
		PermAssignments: make([]permEdgeJSON, 0, d.NumPermissionAssignments()),
	}
	// Each row is sorted from a copy, so the oracle does not lean on
	// the row invariant the encoder relies on.
	for ri, row := range d.roleUsers {
		uis := slices.Clone(row)
		slices.Sort(uis)
		for _, ui := range uis {
			out.UserAssignments = append(out.UserAssignments, userEdgeJSON{Role: d.roles[ri], User: d.users[ui]})
		}
	}
	for ri, row := range d.rolePerms {
		pis := slices.Clone(row)
		slices.Sort(pis)
		for _, pi := range pis {
			out.PermAssignments = append(out.PermAssignments, permEdgeJSON{Role: d.roles[ri], Permission: d.perms[pi]})
		}
	}
	return json.Marshal(out)
}

// decodeReference is the encoding/json decode of the dataset schema
// that ReadJSON replaced, kept as the differential oracle for it.
func decodeReference(data []byte) (*Dataset, error) {
	var in datasetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	d := NewDataset()
	for _, u := range in.Users {
		if err := d.AddUser(u); err != nil {
			return nil, err
		}
	}
	for _, r := range in.Roles {
		if err := d.AddRole(r); err != nil {
			return nil, err
		}
	}
	for _, p := range in.Permissions {
		if err := d.AddPermission(p); err != nil {
			return nil, err
		}
	}
	for _, e := range in.UserAssignments {
		if err := d.AssignUser(e.Role, e.User); err != nil {
			return nil, err
		}
	}
	for _, e := range in.PermAssignments {
		if err := d.AssignPermission(e.Role, e.Permission); err != nil {
			return nil, err
		}
	}
	return d, d.Validate()
}

// schemaKeys are the top-level keys MarshalJSON writes.
var schemaKeys = []string{"users", "roles", "permissions", "userAssignments", "permissionAssignments"}

// divergence names the documented strictness rule under which ReadJSON
// may disagree with decodeReference on input, or returns "" when none
// applies: a null top level, a repeated top-level key, or a top-level
// key that matches a schema name only case-insensitively (which
// encoding/json folds onto the field and ReadJSON skips).
func divergence(input []byte) string {
	dec := json.NewDecoder(bytes.NewReader(input))
	tok, err := dec.Token()
	if err != nil {
		return ""
	}
	if tok == nil {
		return "null top level"
	}
	if tok != json.Delim('{') {
		return ""
	}
	rule := ""
	seen := map[string]bool{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return ""
		}
		key := keyTok.(string)
		if seen[key] {
			rule = "duplicate top-level key"
		}
		seen[key] = true
		for _, name := range schemaKeys {
			if key != name && strings.EqualFold(key, name) {
				rule = "case-folded top-level key"
			}
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return ""
		}
	}
	return rule
}

// marshal is MarshalJSON's output: the bytes DigestOf hashes.
func marshal(t *testing.T, d *Dataset) []byte {
	t.Helper()
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nested wraps inner in depth levels of array brackets.
func nested(depth int, inner string) string {
	return strings.Repeat("[", depth) + inner + strings.Repeat("]", depth)
}

// FuzzReadJSON checks the dataset decoder against decodeReference. An
// input ReadJSON accepts must be accepted by the reference with
// byte-identical MarshalJSON output, must validate and must round-trip;
// any disagreement must fall under a documented strictness rule.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := Figure1().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{}`)
	f.Add(`{"users":["a"],"roles":["r"],"permissions":[],"userAssignments":[{"role":"r","user":"a"}],"permissionAssignments":[]}`)
	f.Add(`{"users":["a","a"]}`)
	f.Add(`not json`)

	_, fixture := streamFixture(f, 12, 9)
	f.Add(string(fixture))
	f.Add(string(fixture[:len(fixture)/2]))
	f.Add(forwardRefDoc)
	f.Add(unknownEdgeDoc)
	f.Add("{\"users\":[\"<a>&b\",\"\u2028\",\"x\u2028y\",\"\xff\"],\"roles\":[\"r&<>\"]," +
		"\"userAssignments\":[{\"role\":\"r&<>\",\"user\":\"<a>&b\"}]}")
	f.Add("{\"users\":[\"\xff\",\"\xfe\"]}") // both decode to U+FFFD: a duplicate
	f.Add(`{"users":["\u003ca\u003e","\ud800"],"roles":["\/r"]}`)
	f.Add(`{"x":` + nested(64, `{"y":"z"}`) + `}`)
	f.Add(`{"users":["u"],"roles":["r"],"userAssignments":[{"role":"r","user":"u","x":` + nested(64, "") + `}]}`)
	f.Add(`{"x":{"y":[1e999,-0.5e-999,{"z":null}]},"users":["a"]}`)
	f.Add(`{"users":["a"]} trailing`)
	f.Add(`{"users":["a"]} {"x":1}`)
	f.Add("{\"users\":[\"a\"]}\n\t ")
	f.Add(`{"users":["a"],"users":["b","c"]}`)
	f.Add(`{"users":["a"],"us\u0065rs":["b"]}`)
	f.Add(`{"Users":["a"]}`)
	f.Add(`null`)
	f.Add(`{"users":null,"roles":[null],"userAssignments":[null]}`)
	// Edge objects: case-folded (U+017F folds to s) and escaped keys,
	// repeated keys, null fields, and values that are not strings.
	edgeDoc := func(edge string) string {
		return `{"users":["u",""],"roles":["r",""],"userAssignments":[` + edge + `]}`
	}
	for _, edge := range []string{
		`{"ROLE":"r","User":"u"}`,
		`{"role":"r","uſer":"u"}`,
		`{"r\u006fle":"r","\u0075ser":"u"}`,
		`{"role":"x","role":"r","user":"u"}`,
		`{"role":"r","role":null,"user":"u"}`,
		`{"role":null,"user":"u"}`,
		`{"role":"r","user":1}`,
		`{"role":true,"user":"u"}`,
		`{"role":{},"user":"u"}`,
		`{"role":["r"],"user":"u"}`,
		`"r"`,
		`{"role":"r","user":"u","x":01}`,
	} {
		f.Add(edgeDoc(edge))
	}
	f.Add(`{"users":[1]}`)
	f.Add(`{"users":[true]}`)
	f.Add(`{"users":"u"}`)
	f.Add(`{"permissions":["p"],"roles":["r"],"permissionAssignments":[{"Role":"r","PERMISSION":"p"}]}`)
	// Skipped values still meet the grammar.
	for _, v := range []string{`01`, `1.`, `-`, `1e`, `1e+`, `-0.5E-7`, `nul`, `tru`, `fals`, `nullx`, `"\x"`, `"\u12"`, "\"\x01\""} {
		f.Add(`{"x":` + v + `,"users":["a"]}`)
	}
	// Surrogate pairs, lone and mismatched surrogates; the prefixes keep
	// the IDs distinct where several decode to U+FFFD.
	f.Add(`{"users":["a\ud83d\ude00","b\ud83d","c\ude00","d\ud83d\u0041","e\ud83d\ud83d\ude00","f\udbff\udfff"]}`)
	f.Add(`{"users":["\ud83dx","\ud83d\n"]}`)
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadJSON(strings.NewReader(input))
		ref, refErr := decodeReference([]byte(input))
		agree := (err == nil) == (refErr == nil)
		if agree && err == nil {
			agree = bytes.Equal(marshal(t, ds), marshal(t, ref))
		}
		if !agree {
			if rule := divergence([]byte(input)); rule == "" {
				t.Fatalf("ReadJSON and the encoding/json reference disagree outside the documented rules:\n"+
					"  ReadJSON err: %v\n  reference err: %v", err, refErr)
			}
		}
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := ds.WriteJSON(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(marshal(t, back), marshal(t, ds)) {
			t.Fatal("round trip changed the dataset")
		}
	})
}

// fuzzDataset builds a small dataset whose IDs are made from a and b:
// three of each kind (fewer when they coincide), every role holding the
// users and permissions that mask selects, so rows of several sizes
// and orders reach the encoder.
func fuzzDataset(a, b string, mask uint64) *Dataset {
	d := NewDataset()
	for _, id := range []string{b, a + b, a} {
		d.EnsureUser(UserID(id))
		d.EnsurePermission(PermissionID(b + id))
	}
	for _, id := range []string{a, "r" + b, b + a} {
		d.EnsureRole(RoleID(id))
	}
	bit := 0
	for ri := 0; ri < d.NumRoles(); ri++ {
		for ui := 0; ui < d.NumUsers(); ui++ {
			if mask>>(bit%64)&1 == 1 {
				_ = d.AssignUser(d.Role(ri), d.User(ui))
			}
			bit++
		}
		for pi := 0; pi < d.NumPermissions(); pi++ {
			if mask>>(bit%64)&1 == 1 {
				_ = d.AssignPermission(d.Role(ri), d.Permission(pi))
			}
			bit++
		}
	}
	return d
}

// FuzzMarshalJSON checks the canonical encoder against encodeReference:
// the bytes must be identical for any ID strings, since persisted
// digests and fleet peers key datasets by them.
func FuzzMarshalJSON(f *testing.F) {
	for _, seed := range [][2]string{
		{"u1", "r1"},
		{"", ""},
		{"<script>", "a&b>c"},
		{"<", ">"},
		{"&", "é<"},
		{"line\u2028sep", "para\u2029sep"},
		{"bad\xffutf8", "\xc3"},
		{"\xed\xa0\x80", "\xf4\x90\x80\x80"},
		{"\x00ctl\x1f", "tab\tnl\n\r\x7f"},
		{`quote"`, `back\slash`},
		{"é✓🙂", "\ufffd\u00e9"},
	} {
		f.Add(seed[0], seed[1], uint64(0xdeadbeefcafef00d))
	}
	f.Add("a", "b", uint64(0))
	f.Add("a", "b", ^uint64(0))
	f.Fuzz(func(t *testing.T, a, b string, mask uint64) {
		d := fuzzDataset(a, b, mask)
		want, err := encodeReference(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(t, d); !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON differs from the reflective encoding:\n got %q\nwant %q", got, want)
		}
	})
}

package rbac

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

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

// FuzzReadAssignmentsCSV must never panic on arbitrary CSV bytes.
func FuzzReadAssignmentsCSV(f *testing.F) {
	f.Add("role,user\nr1,u1\n", "role,permission\nr1,p1\n")
	f.Add("", "")
	f.Add("role,user\n", "role,permission\nr1\n")
	f.Add("x,y\na,b\n", "role,permission\n")
	f.Fuzz(func(t *testing.T, users, perms string) {
		ds, err := ReadAssignmentsCSV(strings.NewReader(users), strings.NewReader(perms))
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted CSV dataset fails validation: %v", err)
		}
	})
}

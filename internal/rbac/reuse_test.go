package rbac

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// failingDocs are decodes that fail part way through, after the
// scanner has gathered IDs into its scratch: input cut off inside the
// permissions array, a repeat among many IDs, and an edge naming a
// user no array declares, caught only once the document has ended.
func failingDocs(t *testing.T) map[string]string {
	t.Helper()
	full := string(marshal(t, sizedDataset(t, 40, 60, 900)))
	cut := strings.Index(full, `"permissions":[`) + 4000
	ids := make([]string, 2000)
	for i := range ids {
		ids[i] = fmt.Sprintf("%q", fmt.Sprintf("user-%d", i))
	}
	ids[len(ids)-1] = ids[3]
	return map[string]string{
		"cut off mid-array":     full[:cut],
		"duplicate ID":          `{"users":[` + strings.Join(ids, ",") + `]}`,
		"unknown edge endpoint": `{"roles":["r"],"users":["u"],"userAssignments":[{"role":"r","user":"u"},{"role":"r","user":"ghost"}]}`,
	}
}

// TestReadJSONReuseAfterFailedDecode decodes cleanly on a scanner
// right after each failing decode, larger and smaller exports alike,
// and on the pooled ReadJSON path: each clean result must equal a fresh
// scanner's decode of the same bytes. A reset scanner keeps no reader
// and no ID string.
func TestReadJSONReuseAfterFailedDecode(t *testing.T) {
	clean := [][]byte{
		marshal(t, sizedDataset(t, 300, 500, 700)),
		marshal(t, sizedDataset(t, 3, 5, 7)),
	}
	for name, bad := range failingDocs(t) {
		for _, doc := range clean {
			want, err := new(scanner).read(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}

			s := new(scanner)
			if _, err := s.read(strings.NewReader(bad)); err == nil {
				t.Fatalf("%s: decode succeeded", name)
			}
			s.reset()
			if s.r != nil || s.rerr != nil || s.pos != 0 || s.end != 0 || s.depth != 0 {
				t.Fatalf("%s: reset left reader state behind", name)
			}
			for b, block := range s.ids {
				for i, id := range block {
					if id != "" {
						t.Fatalf("%s: reset scratch still holds ID %q at %d", name, id, b*idBlock+i)
					}
				}
			}
			got, err := s.read(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s: clean decode after it: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: clean decode on the reused scanner differs from a fresh one", name)
			}

			if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
				t.Fatalf("%s: ReadJSON succeeded", name)
			}
			got, err = ReadJSON(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s: ReadJSON after it: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ReadJSON after it differs from a fresh scanner's decode", name)
			}
		}
	}
}

// TestReadJSONConcurrentDecoders runs four goroutines decoding
// different exports at once through the scanner pool, each decode
// after a failing one, so pooled scanners change hands between
// exports of different sizes. Run it under -race.
func TestReadJSONConcurrentDecoders(t *testing.T) {
	var bad []string
	for _, doc := range failingDocs(t) {
		bad = append(bad, doc)
	}
	const goroutines = 4
	wants := make([]*Dataset, goroutines)
	docs := make([][]byte, goroutines)
	for g := range docs {
		wants[g] = sizedDataset(t, 50*(g+1), 80*(g+1), 120*(g+1))
		docs[g] = marshal(t, wants[g])
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if _, err := ReadJSON(strings.NewReader(bad[(g+n)%len(bad)])); err == nil {
					errs[g] = fmt.Errorf("decode %d: a failing document decoded", n)
					return
				}
				got, err := ReadJSON(bytes.NewReader(docs[g]))
				if err != nil {
					errs[g] = fmt.Errorf("decode %d: %v", n, err)
					return
				}
				if !reflect.DeepEqual(got, wants[g]) {
					errs[g] = fmt.Errorf("decode %d differs from the Add* build", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/store"
)

// BenchmarkStoredCanonical times the paths that hand a stored
// dataset's canonical bytes out or take them in, at paper/10: get is
// GET /v1/datasets/{digest}, raw is GET /v1/datasets/{digest}/raw (the
// body a peer's fetch reads), and put is store.PutCanonical, the
// admission a peer fetch and a reload from disk make. Each runs over the
// generated organisation (plain IDs) and over the same organisation with
// every ID renamed to start with "é" (accented), so that no ID takes the
// encoder's printable-ASCII fast path. Run with -benchmem.
func BenchmarkStoredCanonical(b *testing.B) {
	plainDS, _, err := gen.Org(gen.DefaultOrgParams().Scaled(10))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   *rbac.Dataset
	}{{"plain", plainDS}, {"accented", accented(plainDS)}} {
		digest, canonical, err := store.DigestOf(c.ds)
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.New(store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		if _, err := st.PutCanonical(digest, canonical); err != nil {
			b.Fatal(err)
		}
		h := NewHandler(Options{Store: st})
		for _, path := range []struct{ name, url string }{
			{"get", "/v1/datasets/" + digest},
			{"raw", "/v1/datasets/" + digest + "/raw"},
		} {
			b.Run(path.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(canonical)))
				for i := 0; i < b.N; i++ {
					w := &discardResponse{header: http.Header{}}
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path.url, nil))
					if w.code != http.StatusOK || w.n < int64(len(canonical)) {
						b.Fatalf("GET %s: status %d, %d bytes", path.url, w.code, w.n)
					}
				}
			})
		}
		b.Run("put/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(canonical)))
			for i := 0; i < b.N; i++ {
				if _, err := st.PutCanonical(digest, canonical); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.DeleteDataset(digest)
				b.StartTimer()
			}
		})
	}
}

// accented returns a copy of d with every user, role and permission ID
// prefixed by "é", in the same order and with the same edges.
func accented(d *rbac.Dataset) *rbac.Dataset {
	out := rbac.NewDataset()
	for i := 0; i < d.NumUsers(); i++ {
		out.EnsureUser("é" + d.User(i))
	}
	for i := 0; i < d.NumPermissions(); i++ {
		out.EnsurePermission("é" + d.Permission(i))
	}
	for ri := 0; ri < d.NumRoles(); ri++ {
		role := out.Role(out.EnsureRole("é" + d.Role(ri)))
		for _, ui := range d.RoleUserRow(ri) {
			_ = out.AssignUser(role, out.User(int(ui)))
		}
		for _, pi := range d.RolePermissionRow(ri) {
			_ = out.AssignPermission(role, out.Permission(int(pi)))
		}
	}
	return out
}

// discardResponse is an http.ResponseWriter that keeps the status and
// counts the body bytes, so a benchmark measures the handler and not a
// buffer growing behind it.
type discardResponse struct {
	header http.Header
	code   int
	n      int64
}

func (w *discardResponse) Header() http.Header { return w.header }

func (w *discardResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*discardResponse)(nil)

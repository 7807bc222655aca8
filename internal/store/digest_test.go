package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// figure1Digest is the content digest of rbac.Figure1(). Persisted
// stores and fleet peers key datasets by it, so the canonical encoding
// must never drift.
const figure1Digest = "33a1c05b37ef2150f0c3c2a6307a1bb7fba177db740c25e8fbe6e1a93721fb35"

// TestDigestOfMatchesJSONMarshal pins DigestOf's canonical bytes to
// json.Marshal(ds), the encoding every digest persisted so far was
// computed over. DigestOf skips json.Marshal's compact-and-copy of
// MarshalJSON's output; that is only safe while the output is already
// compact and escaped the way json.Marshal escapes, including HTML
// characters, U+2028/U+2029 and invalid UTF-8.
func TestDigestOfMatchesJSONMarshal(t *testing.T) {
	var corpora []*rbac.Dataset
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.DefaultOrgParams().Scaled(400)
		p.Seed = seed
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, ds)
	}
	odd := rbac.NewDataset()
	for i, id := range []string{
		"<script>", "a>b", "x&y", "line\u2028sep", "para\u2029sep",
		"bad\xffutf8", "\xc3", `quote"back\slash`, "tab\tnl\n", "\x00ctl\x1f", "é✓🙂",
	} {
		role := rbac.RoleID("r" + id)
		user := rbac.UserID("u" + id)
		perm := rbac.PermissionID("p" + id)
		odd.EnsureRole(role)
		odd.EnsureUser(user)
		odd.EnsurePermission(perm)
		if err := odd.AssignUser(role, user); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := odd.AssignPermission(role, perm); err != nil {
				t.Fatal(err)
			}
		}
	}
	corpora = append(corpora, odd, rbac.Figure1(), rbac.NewDataset())

	for i, ds := range corpora {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := DigestOf(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("DigestOf bytes differ from json.Marshal:\n got %q\nwant %q", got, want)
			}
		})
	}

	digest, _, err := DigestOf(rbac.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if digest != figure1Digest {
		t.Fatalf("Figure 1 digest = %s, want %s", digest, figure1Digest)
	}
}

// orgDigests are the DigestOf digests of gen.Org at 1/400 scale, seeds
// 1 to 3, as the reflective encoder computed them. json.Marshal(ds)
// calls MarshalJSON itself, so TestDigestOfMatchesJSONMarshal cannot
// catch an encoder change on its own; these constants can.
var orgDigests = []string{
	"000afb648d376577ee5b76063d7087ecff057f739f563745f087857934286ec9",
	"6bba38799a36a45257496934f629e0ddf08ca6d47ebdd8ec7711ee4a2d6c770f",
	"03fae0068e9ef5aa84e5f6e4324303bbc5c330a0476fff73bf885ca1481f5675",
}

// TestDigestOfPinned pins the content digests of generated corpora.
func TestDigestOfPinned(t *testing.T) {
	for i, want := range orgDigests {
		p := gen.DefaultOrgParams().Scaled(400)
		p.Seed = int64(i + 1)
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DigestOf(ds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: digest %s, want %s", p.Seed, got, want)
		}
	}
}

// TestDigestMatchesDigestOf: the streaming Digest gives DigestOf's
// digest, and the length of DigestOf's bytes, on the pinned corpora.
func TestDigestMatchesDigestOf(t *testing.T) {
	for i, want := range orgDigests {
		p := gen.DefaultOrgParams().Scaled(400)
		p.Seed = int64(i + 1)
		ds, _, err := gen.Org(p)
		if err != nil {
			t.Fatal(err)
		}
		_, canonical, err := DigestOf(ds)
		if err != nil {
			t.Fatal(err)
		}
		got, size, err := Digest(ds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || size != int64(len(canonical)) {
			t.Errorf("seed %d: Digest = %s, %d bytes; DigestOf = %s, %d bytes", p.Seed, got, size, want, len(canonical))
		}
	}
}

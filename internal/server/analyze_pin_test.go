package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// TestAnalyzeResponseBytesPinned pins the /v1/analyze response body,
// byte for byte bar the wall-clock durations, on three datasets: the
// paper's Figure 1, a gen.Org paper/400 organisation, and a dataset in
// which every user and permission is assigned, so the standalone lists
// must encode as null rather than []. A change to how the engine sizes
// or fills the report's lists must leave these digests as they are.
func TestAnalyzeResponseBytesPinned(t *testing.T) {
	org, _, err := gen.Org(gen.DefaultOrgParams().Scaled(400))
	if err != nil {
		t.Fatal(err)
	}
	connected := rbac.NewDataset()
	for _, err := range []error{
		connected.AddUser("u1"), connected.AddUser("u2"),
		connected.AddRole("r1"), connected.AddRole("r2"),
		connected.AddPermission("p1"), connected.AddPermission("p2"),
		connected.AssignUser("r1", "u1"), connected.AssignUser("r1", "u2"),
		connected.AssignUser("r2", "u1"), connected.AssignUser("r2", "u2"),
		connected.AssignPermission("r1", "p1"), connected.AssignPermission("r1", "p2"),
		connected.AssignPermission("r2", "p1"), connected.AssignPermission("r2", "p2"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		ds   *rbac.Dataset
		want string
	}{
		{"figure1", rbac.Figure1(), "543a91b0800f9c01fc1fbd5fd229c47974cafb704066593ab53a670595d9cb75"},
		{"org400", org, "56614060700559951ec6c60756150c1c425e1a5c860a9313fee6c8c9e730b5b0"},
		{"connected", connected, "552ed5d1cf0cd85fe7a48713cd114bf854c498928482b78c368ebbe433c9b0a1"},
	}
	durations := regexp.MustCompile(`("[a-zA-Z]*DurationNanos":)[0-9]+`)
	srv := newServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			if err := tc.ds.WriteJSON(&body); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", &body)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			sum := sha256.Sum256(durations.ReplaceAll(got, []byte("${1}0")))
			if hex.EncodeToString(sum[:]) != tc.want {
				t.Errorf("response digest %x, want %s; body:\n%.600s", sum, tc.want, got)
			}
		})
	}
}

// TestOptimizeResponseBytesPinned pins the /v1/optimize response body
// for a gen.Org paper/40 organisation (seed 1) posted inline: the plan
// with each action's savings, the before and after shapes and the
// optimized dataset. A change to how the planner merges or deletes
// roles must leave this digest as it is.
func TestOptimizeResponseBytesPinned(t *testing.T) {
	org, _, err := gen.Org(gen.DefaultOrgParams().Scaled(40))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := org.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(newServer(t).URL+"/v1/optimize", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	const want = "50beb2ef192715ab5eabfc81790749eb2fc2fa82e52b3c710dab4081ab2b6015"
	if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
		t.Errorf("response digest %x, want %s; body:\n%.600s", sum, want, got)
	}
}

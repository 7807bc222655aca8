package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/replay"
)

// groupsKey renders a group partition order-independently: members are
// sorted before keying, so engine order (dataset index) and session
// order (lexical) compare as sets.
func groupsKey(groups [][]rbac.RoleID) map[string]bool {
	out := make(map[string]bool, len(groups))
	for _, g := range groups {
		ids := append([]rbac.RoleID(nil), g...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		key := ""
		for _, id := range ids {
			key += string(id) + "\x00"
		}
		out[key] = true
	}
	return out
}

func reportGroups(groups []core.RoleGroup) [][]rbac.RoleID {
	out := make([][]rbac.RoleID, 0, len(groups))
	for _, g := range groups {
		ids := append([]rbac.RoleID(nil), g.Roles...)
		out = append(out, ids)
	}
	return out
}

// requireSameGroups asserts two partitions are set-identical.
func requireSameGroups(t *testing.T, label string, got, want [][]rbac.RoleID) {
	t.Helper()
	gk, wk := groupsKey(got), groupsKey(want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d groups, want %d\ngot:  %v\nwant: %v", label, len(gk), len(wk), got, want)
	}
	for k := range wk {
		if !gk[k] {
			t.Fatalf("%s: missing group %q\ngot:  %v\nwant: %v", label, k, got, want)
		}
	}
}

// requireMatchesAnalyze audits the session and checks both sides
// against a full engine run over the same dataset.
func requireMatchesAnalyze(t *testing.T, s *Session) {
	t.Helper()
	audit := s.Audit()
	rep, err := core.AnalyzeContext(context.Background(), s.Dataset(), core.Options{SkipSimilar: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	requireSameGroups(t, "same-user", audit.SameUserGroups, reportGroups(rep.SameUserGroups))
	requireSameGroups(t, "same-permission", audit.SamePermissionGroups, reportGroups(rep.SamePermissionGroups))
}

func smallBase(t *testing.T) *rbac.Dataset {
	t.Helper()
	d := rbac.NewDataset()
	for u := 0; u < 12; u++ {
		if err := d.AddUser(rbac.UserID(fmt.Sprintf("u%02d", u))); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 8; p++ {
		if err := d.AddPermission(rbac.PermissionID(fmt.Sprintf("p%02d", p))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 10; r++ {
		id := rbac.RoleID(fmt.Sprintf("r%02d", r))
		if err := d.AddRole(id); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 12; u++ {
			if (u+r)%3 == 0 {
				_ = d.AssignUser(id, rbac.UserID(fmt.Sprintf("u%02d", u)))
			}
		}
		for p := 0; p < 8; p++ {
			if (p*r)%5 == 1 {
				_ = d.AssignPermission(id, rbac.PermissionID(fmt.Sprintf("p%02d", p)))
			}
		}
	}
	return d
}

// TestAuditMatchesAnalyzeAtBase: the freshly built session already
// agrees with the engine, before any events.
func TestAuditMatchesAnalyzeAtBase(t *testing.T) {
	s := New("t", "d", smallBase(t))
	requireMatchesAnalyze(t, s)
}

// TestAuditMatchesAnalyzeUnderDrift: after every batch of generated
// churn — including entity removals, which shift rbac indices — the
// incremental audit stays identical to a full re-analysis.
func TestAuditMatchesAnalyzeUnderDrift(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := smallBase(t)
		events, err := gen.Drift(base, gen.DriftParams{Events: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s := New("t", "d", base)
		for i := 0; i < len(events); i += 30 {
			end := i + 30
			if end > len(events) {
				end = len(events)
			}
			if n, err := s.Apply(events[i:end]); err != nil {
				t.Fatalf("seed %d: apply[%d:%d] stopped at %d: %v", seed, i, end, n, err)
			}
			requireMatchesAnalyze(t, s)
		}
	}
}

// TestRemoveOpsExplicit drives every remove op through a handmade
// sequence (drift streams are add-heavy) and checks consistency.
func TestRemoveOpsExplicit(t *testing.T) {
	s := New("t", "d", smallBase(t))
	events := []replay.Event{
		{Op: replay.OpRemoveUser, User: "u03"},
		{Op: replay.OpRemovePermission, Permission: "p02"},
		{Op: replay.OpRemoveRole, Role: "r04"},
		{Op: replay.OpAddRole, Role: "r04"}, // re-add under a fresh session int
		{Op: replay.OpAssignUser, Role: "r04", User: "u00"},
		{Op: replay.OpAssignUser, Role: "r04", User: "u06"},
		{Op: replay.OpRemoveUser, User: "u00"},
		{Op: replay.OpAddUser, User: "u00"}, // re-added user starts unassigned
		{Op: replay.OpAssignPermission, Role: "r01", Permission: "p07"},
		{Op: replay.OpRevokePermission, Role: "r01", Permission: "p07"},
	}
	if n, err := s.Apply(events); err != nil {
		t.Fatalf("apply stopped at %d: %v", n, err)
	}
	requireMatchesAnalyze(t, s)
}

// TestApplyStopsAtFirstBadEvent: the failing event reports its index,
// nothing after it applies, and the applied prefix stays consistent.
func TestApplyStopsAtFirstBadEvent(t *testing.T) {
	s := New("t", "d", smallBase(t))
	events := []replay.Event{
		{Op: replay.OpAddUser, User: "u99"},
		{Op: replay.OpAssignUser, Role: "no-such-role", User: "u99"},
		{Op: replay.OpAddUser, User: "u98"},
	}
	n, err := s.Apply(events)
	if err == nil || n != 1 {
		t.Fatalf("applied %d, err %v; want 1 applied and an error", n, err)
	}
	if _, ok := s.Dataset().UserIndex("u98"); ok {
		t.Fatal("event after the failing one was applied")
	}
	if _, ok := s.Dataset().UserIndex("u99"); !ok {
		t.Fatal("event before the failing one was lost")
	}
	requireMatchesAnalyze(t, s)
}

// TestDriftReplayFromReconcile is the drift-endpoint shape: reconcile
// two snapshots, replay the delta through a session of before, and the
// audit matches analyzing after.
func TestDriftReplayFromReconcile(t *testing.T) {
	before := smallBase(t)
	after := before.Clone()
	events, err := gen.Drift(after, gen.DriftParams{Events: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep := &replay.Replayer{Dataset: after}
	if _, err := rep.Run(events); err != nil {
		t.Fatal(err)
	}

	delta := replay.Reconcile(before, after)
	s := New("t", "d", before)
	if n, err := s.Apply(delta); err != nil {
		t.Fatalf("apply reconcile delta stopped at %d: %v", n, err)
	}
	requireMatchesAnalyze(t, s)
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(Options{TTL: 50 * time.Millisecond, MaxSessions: 2})
	defer m.Close()

	s1, err := m.Create("d1", smallBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(s1.ID()); err != nil {
		t.Fatalf("get live: %v", err)
	}
	if _, err := m.Create("d2", smallBase(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("d3", smallBase(t)); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("cap not enforced: %v", err)
	}
	if !m.Delete(s1.ID()) {
		t.Fatal("delete live session reported false")
	}
	if _, err := m.Get(s1.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still resolves: %v", err)
	}

	s3, err := m.Create("d3", smallBase(t))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := m.Get(s3.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle-expired session still resolves: %v", err)
	}
}

// orgBase builds the org dataset at 1/div of the paper's scale.
func orgBase(b *testing.B, div int) *rbac.Dataset {
	b.Helper()
	ds, _, err := gen.Org(gen.DefaultOrgParams().Scaled(div))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// oneMutationSizes are the sizes the one-mutation benchmarks compare
// the two paths at: paper/10 and the paper's own scale.
var oneMutationSizes = []int{10, 1}

// oneMutation is iteration i's event: an assign, then the revoke of
// the same edge. Every event changes a role's user set (an assign-only
// stream turns into no-ops once it wraps around the role and user
// lists), and the dataset stays the size of the corpus.
func oneMutation(i int, roles []rbac.RoleID, users []rbac.UserID) replay.Event {
	k := i / 2
	e := replay.Event{Op: replay.OpAssignUser, Role: roles[k%len(roles)], User: users[k%len(users)]}
	if i%2 == 1 {
		e.Op = replay.OpRevokeUser
	}
	return e
}

// BenchmarkFullReanalysisOneMutation is the batch path for a 1-event
// delta: mutate the dataset, re-run the engine's class-4 detectors.
func BenchmarkFullReanalysisOneMutation(b *testing.B) {
	for _, div := range oneMutationSizes {
		b.Run(fmt.Sprintf("paper%d", div), func(b *testing.B) {
			ds := orgBase(b, div)
			users := ds.Users()
			roles := ds.Roles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := replay.Apply(ds, oneMutation(i, roles, users)); err != nil {
					b.Fatal(err)
				}
				if _, err := core.AnalyzeContext(context.Background(), ds, core.Options{SkipSimilar: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalAuditOneMutation is the session path for the
// same delta: apply one event to the live index, read the groups off.
// The session's first audit, its one full pass, runs before the timer.
func BenchmarkIncrementalAuditOneMutation(b *testing.B) {
	for _, div := range oneMutationSizes {
		b.Run(fmt.Sprintf("paper%d", div), func(b *testing.B) {
			ds := orgBase(b, div)
			s := New("bench", "d", ds)
			s.Audit()
			users := ds.Users()
			roles := ds.Roles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := s.Apply([]replay.Event{oneMutation(i, roles, users)}); err != nil {
					b.Fatalf("applied %d: %v", n, err)
				}
				_ = s.Audit()
			}
		})
	}
}

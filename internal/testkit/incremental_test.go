package testkit

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
)

// corpusDataset lifts a corpus matrix into a full tripartite dataset:
// row i becomes role r<i>, column j both user u<j> and permission p<j>,
// and the same bit pattern drives both assignment matrices. That makes
// the expected same-user and same-permission partitions identical and
// both equal to the corpus's threshold-0 oracle.
func corpusDataset(t *testing.T, rows []*bitvec.Vector) *rbac.Dataset {
	t.Helper()
	ds := rbac.NewDataset()
	if len(rows) == 0 {
		return ds
	}
	w := rows[0].Len()
	for j := 0; j < w; j++ {
		if err := ds.AddUser(rbac.UserID(fmt.Sprintf("u%04d", j))); err != nil {
			t.Fatal(err)
		}
		if err := ds.AddPermission(rbac.PermissionID(fmt.Sprintf("p%04d", j))); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range rows {
		rid := rbac.RoleID(fmt.Sprintf("r%04d", i))
		if err := ds.AddRole(rid); err != nil {
			t.Fatal(err)
		}
		var aerr error
		row.ForEach(func(j int) bool {
			if aerr = ds.AssignUser(rid, rbac.UserID(fmt.Sprintf("u%04d", j))); aerr != nil {
				return false
			}
			aerr = ds.AssignPermission(rid, rbac.PermissionID(fmt.Sprintf("p%04d", j)))
			return aerr == nil
		})
		if aerr != nil {
			t.Fatal(aerr)
		}
	}
	return ds
}

// groupSet canonicalises a [][]RoleID group list into an
// order-independent set-of-sets key for set-identity comparison.
func groupSet(groups [][]rbac.RoleID) map[string]bool {
	out := make(map[string]bool, len(groups))
	for _, g := range groups {
		ids := make([]string, len(g))
		for i, id := range g {
			ids[i] = string(id)
		}
		sort.Strings(ids)
		out[strings.Join(ids, "\x00")] = true
	}
	return out
}

// reportGroupSet extracts the engine's group view in the same key form.
func reportGroupSet(groups []core.RoleGroup) map[string]bool {
	raw := make([][]rbac.RoleID, len(groups))
	for i, g := range groups {
		raw[i] = g.Roles
	}
	return groupSet(raw)
}

// requireSetIdentical fails the test unless the two group views are
// set-identical.
func requireSetIdentical(t *testing.T, label string, want, got map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: incremental audit missing group {%s}", label, strings.ReplaceAll(k, "\x00", " "))
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: incremental audit invented group {%s}", label, strings.ReplaceAll(k, "\x00", " "))
		}
	}
}

// TestReconcileReplayMatchesAnalyze is the drift-audit differential
// suite: for every seeded corpus, lift the matrix into a dataset
// (before), churn it with generated drift events (after), and check
// that a session built over before already reports exactly the class-4
// groups a full engine run over before finds, and that replaying
// Reconcile(before, after) through it lands on exactly the groups a
// full engine re-analysis of after finds — set-identical on both the
// same-user and same-permission sides. This is the correctness contract behind
// POST /v1/drift and GET /v1/sessions/{id}/audit: an O(delta) audit
// must never be distinguishable from a full re-run.
func TestReconcileReplayMatchesAnalyze(t *testing.T) {
	ctx := context.Background()
	for _, c := range Corpora(false) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rows, err := c.Rows()
			if err != nil {
				t.Fatal(err)
			}
			before := corpusDataset(t, rows)

			// Churn the snapshot: drift events are guaranteed applicable
			// to their base, so after is a valid mutation of before.
			after := before.Clone()
			events, err := gen.Drift(after, gen.DriftParams{Events: 40, Seed: c.Params.Seed + 7})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range events {
				if err := replay.Apply(after, e); err != nil {
					t.Fatalf("drift event %d: %v", i, err)
				}
			}

			// The O(delta) path: diff the snapshots, replay the delta
			// through the session, read the groups off its buckets.
			delta := replay.Reconcile(before, after)
			s := session.New("differential", "base", before)

			// Built from scratch, before any delta, the session already
			// agrees with a full engine run over before.
			baseReport, err := core.AnalyzeContext(ctx, before, core.Options{SkipSimilar: true})
			if err != nil {
				t.Fatal(err)
			}
			baseAudit := s.Audit()
			requireSetIdentical(t, "same-user at base",
				reportGroupSet(baseReport.SameUserGroups), groupSet(baseAudit.SameUserGroups))
			requireSetIdentical(t, "same-permission at base",
				reportGroupSet(baseReport.SamePermissionGroups), groupSet(baseAudit.SamePermissionGroups))

			if n, aerr := s.Apply(delta); aerr != nil {
				t.Fatalf("replaying reconcile delta stopped at event %d: %v", n, aerr)
			}
			audit := s.Audit()

			// The batch path: full engine re-analysis of after.
			report, err := core.AnalyzeContext(ctx, after, core.Options{SkipSimilar: true})
			if err != nil {
				t.Fatal(err)
			}

			requireSetIdentical(t, "same-user",
				reportGroupSet(report.SameUserGroups), groupSet(audit.SameUserGroups))
			requireSetIdentical(t, "same-permission",
				reportGroupSet(report.SamePermissionGroups), groupSet(audit.SamePermissionGroups))
		})
	}
}

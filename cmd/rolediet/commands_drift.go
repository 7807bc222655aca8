package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/rbac"
	"repro/internal/replay"
	"repro/internal/session"
	"repro/internal/store"
)

// cmdDrift is the CLI face of the O(delta) audit path, sharing the
// session.DriftReport schema with POST /v1/drift. Three modes:
//
//	rolediet drift -before a.json -after b.json
//	    local drift audit: reconcile the snapshots, replay the delta
//	    through a mutation session, print the DriftReport JSON
//	rolediet drift -normalize report.json
//	    canonicalise the duplicate-group view of any audit-shaped JSON
//	    (session audit, /v1/analyze report, or DriftReport) so two
//	    sources of the same groups compare byte-for-byte
//	rolediet drift -gen-base base.json -gen-events 3 -out events.jsonl
//	    generate a replayable synthetic churn log against a base
//	    snapshot (the end-to-end tests feed this to /v1/sessions)
func cmdDrift(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("drift", flag.ContinueOnError)
	var (
		before    = fs.String("before", "", "earlier dataset JSON path")
		after     = fs.String("after", "", "later dataset JSON path")
		normalize = fs.String("normalize", "", `audit-shaped JSON to canonicalise ("-" for stdin)`)
		genBase   = fs.String("gen-base", "", "base dataset for synthetic churn generation")
		genEvents = fs.Int("gen-events", 3, "churn events to generate with -gen-base")
		seed      = fs.Int64("seed", 1, "churn generator seed")
		out       = fs.String("out", "", "output path (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch {
	case *normalize != "":
		return normalizeGroups(*normalize, w)
	case *genBase != "":
		ds, err := loadDataset(*genBase)
		if err != nil {
			return err
		}
		events, err := gen.Drift(ds, gen.DriftParams{Events: *genEvents, Seed: *seed})
		if err != nil {
			return err
		}
		return replay.WriteLog(w, events)
	case *before != "" && *after != "":
		dsBefore, err := loadDataset(*before)
		if err != nil {
			return err
		}
		dsAfter, err := loadDataset(*after)
		if err != nil {
			return err
		}
		beforeRef, _, err := store.Digest(dsBefore)
		if err != nil {
			return err
		}
		afterRef, _, err := store.Digest(dsAfter)
		if err != nil {
			return err
		}
		report, err := session.Drift(beforeRef, afterRef, dsBefore, dsAfter)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		return enc.Encode(report)
	default:
		return fmt.Errorf("drift: need -before/-after, -normalize, or -gen-base")
	}
}

// normalizedGroups is the canonical byte-comparable form: both group
// lists sorted members-lexically and groups-by-first-member.
type normalizedGroups struct {
	SameUserGroups       [][]rbac.RoleID `json:"sameUserGroups"`
	SamePermissionGroups [][]rbac.RoleID `json:"samePermissionGroups"`
}

// auditShapes covers the three producers of duplicate-group JSON: the
// session audit and DriftReport carry bare string arrays; the engine
// report wraps each group in {"roles": [...]}.
type auditShape struct {
	SameUserGroups       json.RawMessage `json:"sameUserGroups"`
	SamePermissionGroups json.RawMessage `json:"samePermissionGroups"`
	SameUser             *struct {
		Groups json.RawMessage `json:"groups"`
	} `json:"sameUser"`
	SamePermission *struct {
		Groups json.RawMessage `json:"groups"`
	} `json:"samePermission"`
}

// normalizeGroups reads one audit-shaped document and prints its
// canonical normalizedGroups encoding.
func normalizeGroups(path string, w io.Writer) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var shape auditShape
	if err := json.Unmarshal(raw, &shape); err != nil {
		return fmt.Errorf("drift: parse %s: %w", path, err)
	}
	userRaw, permRaw := shape.SameUserGroups, shape.SamePermissionGroups
	if shape.SameUser != nil {
		userRaw = shape.SameUser.Groups
	}
	if shape.SamePermission != nil {
		permRaw = shape.SamePermission.Groups
	}
	norm := normalizedGroups{}
	if norm.SameUserGroups, err = decodeGroups(userRaw); err != nil {
		return fmt.Errorf("drift: sameUserGroups: %w", err)
	}
	if norm.SamePermissionGroups, err = decodeGroups(permRaw); err != nil {
		return fmt.Errorf("drift: samePermissionGroups: %w", err)
	}
	session.SortGroups(norm.SameUserGroups)
	session.SortGroups(norm.SamePermissionGroups)
	return json.NewEncoder(w).Encode(norm)
}

// decodeGroups accepts [["r1","r2"],...] or [{"roles":["r1","r2"]},...].
func decodeGroups(raw json.RawMessage) ([][]rbac.RoleID, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return [][]rbac.RoleID{}, nil
	}
	var bare [][]rbac.RoleID
	if err := json.Unmarshal(raw, &bare); err == nil {
		if bare == nil {
			bare = [][]rbac.RoleID{}
		}
		return bare, nil
	}
	var wrapped []struct {
		Roles []rbac.RoleID `json:"roles"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		return nil, fmt.Errorf("neither [][]string nor [{roles}] shaped: %w", err)
	}
	out := make([][]rbac.RoleID, 0, len(wrapped))
	for _, g := range wrapped {
		out = append(out, g.Roles)
	}
	return out, nil
}

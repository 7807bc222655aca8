package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/store"
)

// cmdDigest prints a dataset's content digest — the same SHA-256 over
// the canonical encoding that roledietd's /v1/datasets registry
// assigns, so a digest computed offline can be used as dataset_ref
// against a server that has the snapshot.
func cmdDigest(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("digest", flag.ContinueOnError)
	var (
		data     = fs.String("data", "", "dataset JSON path (required)")
		jsonOut  = fs.Bool("json", false, "emit JSON ({digest, bytes, roles, users, permissions})")
		prefixed = fs.Bool("prefixed", false, "print with the sha256: prefix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("digest: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	digest, size, err := store.Digest(ds)
	if err != nil {
		return err
	}
	if *prefixed {
		digest = "sha256:" + digest
	}
	if *jsonOut {
		st := ds.Stats()
		enc := json.NewEncoder(stdout)
		return enc.Encode(map[string]any{
			"digest":      digest,
			"bytes":       size,
			"roles":       st.Roles,
			"users":       st.Users,
			"permissions": st.Permissions,
		})
	}
	fmt.Fprintln(stdout, digest)
	return nil
}

// cmdMine rebuilds a role set bottom-up from the dataset's effective
// user-permission assignment — the role-mining comparison from the
// paper's related-work discussion.
func cmdMine(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	var (
		data     = fs.String("data", "", "dataset JSON path (required)")
		out      = fs.String("out", "", "write the mined dataset to this path (optional)")
		strategy = fs.String("strategy", "pairwise-intersections",
			"candidate strategy: distinct-rows or pairwise-intersections")
		maxCand = fs.Int("max-candidates", 0, "cap the candidate pool; every distinct user row stays (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("mine: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	var strat mining.CandidateStrategy
	switch *strategy {
	case "distinct-rows":
		strat = mining.DistinctRows
	case "pairwise-intersections":
		strat = mining.PairwiseIntersections
	default:
		return fmt.Errorf("mine: unknown strategy %q", *strategy)
	}

	upa := mining.UPAFromDataset(ds)
	res, err := mining.Mine(upa, mining.Options{Strategy: strat, MaxCandidates: *maxCand})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mined %d roles from %d existing roles (%d candidates, strategy %s)\n",
		res.NumRoles(), ds.NumRoles(), res.CandidateCount, strat)

	mined, err := mining.ToDataset(ds, res)
	if err != nil {
		return err
	}
	if err := consolidate.VerifySafety(ds, mined); err != nil {
		return fmt.Errorf("mine: mined decomposition changed effective permissions: %w", err)
	}
	fmt.Fprintln(stdout, "effective permissions verified unchanged")
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := mined.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote mined dataset to %s\n", *out)
	}
	return nil
}

// cmdSuggest emits reviewable merge suggestions for similar-role
// groups, with the exact grant delta per suggestion — the consolidation
// approach the paper lists as future work.
func cmdSuggest(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suggest", flag.ContinueOnError)
	var (
		data      = fs.String("data", "", "dataset JSON path (required)")
		threshold = fs.Int("threshold", 1, "similar-group threshold k")
		format    = fs.String("format", "text", "output format: text or json")
		riskFree  = fs.Bool("risk-free-only", false, "only print suggestions with no added grants")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat("suggest", *format); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("suggest: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(ds, core.Options{SimilarThreshold: *threshold})
	if err != nil {
		return err
	}
	suggestions, err := consolidate.SuggestSimilar(ds, rep)
	if err != nil {
		return err
	}
	if *riskFree {
		kept := suggestions[:0]
		for _, s := range suggestions {
			if s.RiskFree() {
				kept = append(kept, s)
			}
		}
		suggestions = kept
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(suggestions)
	}
	if len(suggestions) == 0 {
		fmt.Fprintln(stdout, "no merge suggestions")
		return nil
	}
	for i, s := range suggestions {
		fmt.Fprintf(stdout, "%d. merge %v (similar %s): ", i+1, s.Roles, s.Side)
		if s.RiskFree() {
			fmt.Fprintln(stdout, "risk-free (no new grants)")
			continue
		}
		fmt.Fprintf(stdout, "%d new grants\n", len(s.AddedGrants))
		for _, g := range s.AddedGrants {
			fmt.Fprintf(stdout, "     + %s -> %s\n", g.User, g.Permission)
		}
	}
	return nil
}

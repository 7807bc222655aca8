package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/optimize"
)

// cmdOptimize runs the full remediation planner over a dataset —
// class-1/2/3 eliminations, class-4/5 merges to convergence, and the
// optional mining pass — prints the explainable plan, and can write
// the optimized dataset and the plan itself. Alternative modes replay
// a saved plan (-apply) or canonicalise plan JSON for byte comparison
// in smoke scripts (-normalize).
func cmdOptimize(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	var (
		data      = fs.String("data", "", "dataset JSON path (required)")
		threshold = fs.Int("threshold", 1, "similar-group threshold k for class-5 merges")
		skipSim   = fs.Bool("skip-similar", false, "plan only the provably safe classes (1-4)")
		mine      = fs.Bool("mine", false, "try the bounded role-mining pass after merging")
		maxEdges  = fs.Int("max-added-edges", 0, "mining budget: assignment edges a mined role set may add")
		maxCand   = fs.Int("max-candidates", 0, "mining candidate-pool cap (0 = unlimited)")
		maxRounds = fs.Int("max-rounds", 0, "cap merge rounds (0 = run to convergence)")
		workers   = fs.Int("workers", 0, "mining worker goroutines; 0 or 1 serial, >= 2 parallel")
		out       = fs.String("out", "", "write the optimized dataset to this path")
		planOut   = fs.String("plan", "", "write the plan JSON to this path")
		format    = fs.String("format", "text", "output format: text or json")
		apply     = fs.String("apply", "", "replay this plan JSON against -data instead of planning")
		normalize = fs.String("normalize", "", `plan-shaped JSON to canonicalise ("-" for stdin)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat("optimize", *format); err != nil {
		return err
	}
	if *normalize != "" {
		return normalizePlan(*normalize, stdout)
	}
	if *data == "" {
		return fmt.Errorf("optimize: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}

	if *apply != "" {
		raw, err := os.ReadFile(*apply)
		if err != nil {
			return err
		}
		plan, err := decodePlan(raw)
		if err != nil {
			return fmt.Errorf("optimize: parse plan %s: %w", *apply, err)
		}
		applied, err := optimize.Apply(ds, plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replayed %d actions: %d roles -> %d roles\n",
			len(plan.Actions), ds.NumRoles(), applied.NumRoles())
		return writeDatasetFile(applied, *out, stdout)
	}

	res, err := optimize.Run(ds, optimize.Knobs{
		Analysis:      core.Options{SimilarThreshold: *threshold, SkipSimilar: *skipSim},
		Mine:          *mine,
		MaxAddedEdges: *maxEdges,
		MaxCandidates: *maxCand,
		MaxRounds:     *maxRounds,
		Workers:       *workers,
	})
	if err != nil {
		return err
	}

	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printPlanText(stdout, res)
	}
	if *planOut != "" {
		raw, err := json.MarshalIndent(&res.Plan, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*planOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote plan to %s\n", *planOut)
	}
	return writeDatasetFile(res.Optimized, *out, stdout)
}

// printPlanText renders the human-readable plan: one line per action
// with its savings, then the before/after summary the reviewer signs
// off on.
func printPlanText(w io.Writer, res *optimize.Result) {
	if len(res.Plan.Actions) == 0 {
		fmt.Fprintln(w, "no optimization actions: the role set is already tight")
	}
	for i, a := range res.Plan.Actions {
		fmt.Fprintf(w, "%d. [class %d] %s", i+1, a.Class, a.Kind)
		switch a.Kind {
		case optimize.KindMergeRoles:
			fmt.Fprintf(w, ": keep %s, fold in %v (%s side)", a.Keep, a.Remove, a.Side)
		case optimize.KindMineRoleset:
			fmt.Fprintf(w, ": replace the role set with %d mined roles", len(a.MinedRoles))
		default:
			fmt.Fprintf(w, ": drop %s", a.Role)
		}
		fmt.Fprintf(w, " (-%d roles, %+d edges)\n", a.RolesRemoved, a.EdgesDelta)
		fmt.Fprintf(w, "   %s\n", a.Reason)
	}
	fmt.Fprintf(w, "roles %d -> %d, assignment edges %+d, %d merge rounds\n",
		res.Before.Roles, res.After.Roles, res.Plan.EdgesDelta(), res.Rounds)
	if res.MiningNote != "" {
		fmt.Fprintf(w, "mining: %s\n", res.MiningNote)
	}
	fmt.Fprintln(w, "reachability verified: optimized set grants exactly the input relation")
}

// decodePlan accepts either a bare plan ({"actions": [...]}) or a full
// optimize result and returns the plan.
func decodePlan(raw []byte) (*optimize.Plan, error) {
	var plan optimize.Plan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, err
	}
	if len(plan.Actions) > 0 {
		return &plan, nil
	}
	var res struct {
		Plan *optimize.Plan `json:"plan"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	if res.Plan != nil {
		return res.Plan, nil
	}
	return &plan, nil
}

// normalizePlan reads plan-shaped JSON (a bare plan, a full optimize
// result, or a paginated action page) and prints one canonical compact
// encoding, so smoke scripts can byte-compare plans from different
// surfaces.
func normalizePlan(path string, w io.Writer) error {
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
	plan, err := decodePlan(raw)
	if err != nil {
		return fmt.Errorf("optimize: parse %s: %w", path, err)
	}
	if len(plan.Actions) == 0 {
		// Paginated page shape: {"items": [...]}.
		var page struct {
			Items []optimize.Action `json:"items"`
		}
		if err := json.Unmarshal(raw, &page); err == nil && len(page.Items) > 0 {
			plan.Actions = page.Items
		}
	}
	out, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// writeDatasetFile writes ds to path when set, logging the write.
func writeDatasetFile(ds interface{ WriteJSON(io.Writer) error }, path string, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote optimized dataset to %s\n", path)
	return nil
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/rbac"
	"repro/internal/replay"
)

// cmdBench runs the complete evaluation (both sweeps + the org audit)
// and emits a Markdown report.
func cmdBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		quick = fs.Bool("quick", false, "miniature sizes (seconds instead of minutes)")
		runs  = fs.Int("runs", 0, "override repetitions per measurement")
		scale = fs.Int("org-scale", 0, "override the org-audit scale divisor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.FullReportConfig()
	if *quick {
		cfg = bench.QuickReportConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *scale > 0 {
		cfg.OrgScale = *scale
	}
	cfg.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	md, err := bench.FullReport(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, md)
	return nil
}

// cmdRecall runs the approximate-method quality sweep: recall and
// duration for HNSW across efSearch.
func cmdRecall(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("recall", flag.ContinueOnError)
	var (
		roles     = fs.Int("roles", 4000, "matrix rows")
		users     = fs.Int("users", 1000, "matrix columns")
		threshold = fs.Int("threshold", 0, "group threshold")
		seed      = fs.Int64("seed", 1, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunRecall(bench.RecallConfig{
		Rows:      *roles,
		Cols:      *users,
		Threshold: *threshold,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Table())
	return nil
}

// cmdQuery answers access-review questions against a dataset.
func cmdQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	var (
		data = fs.String("data", "", "dataset JSON path (required)")
		user = fs.String("user", "", "user id to inspect")
		perm = fs.String("permission", "", "permission id to inspect")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("query: -data is required")
	}
	if *user == "" && *perm == "" {
		return fmt.Errorf("query: need -user and/or -permission")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	x := query.NewIndex(ds)

	switch {
	case *user != "" && *perm != "":
		grants, err := x.Why(rbac.UserID(*user), rbac.PermissionID(*perm))
		if err != nil {
			return err
		}
		if len(grants) == 0 {
			fmt.Fprintf(stdout, "%s does NOT hold %s\n", *user, *perm)
			return nil
		}
		fmt.Fprintf(stdout, "%s holds %s via %d role(s):\n", *user, *perm, len(grants))
		for _, g := range grants {
			fmt.Fprintf(stdout, "  %s\n", g.Via)
		}
	case *user != "":
		roles, err := x.RolesOf(rbac.UserID(*user))
		if err != nil {
			return err
		}
		perms, err := x.PermissionsOf(rbac.UserID(*user))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "user %s: %d roles %v\n", *user, len(roles), roles)
		fmt.Fprintf(stdout, "effective permissions (%d): %v\n", len(perms), perms)
	default:
		roles, err := x.RolesGranting(rbac.PermissionID(*perm))
		if err != nil {
			return err
		}
		users, err := x.UsersWith(rbac.PermissionID(*perm))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "permission %s: granted by %d roles %v\n", *perm, len(roles), roles)
		fmt.Fprintf(stdout, "held by %d users: %v\n", len(users), users)
	}
	return nil
}

// cmdReconcile computes the event log transforming one snapshot into
// another.
func cmdReconcile(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reconcile", flag.ContinueOnError)
	var (
		before = fs.String("before", "", "earlier dataset JSON path (required)")
		after  = fs.String("after", "", "later dataset JSON path (required)")
		out    = fs.String("out", "", "write the JSONL event log here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *before == "" || *after == "" {
		return fmt.Errorf("reconcile: -before and -after are required")
	}
	dsBefore, err := loadDataset(*before)
	if err != nil {
		return err
	}
	dsAfter, err := loadDataset(*after)
	if err != nil {
		return err
	}
	events := replay.Reconcile(dsBefore, dsAfter)
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := replay.WriteLog(w, events); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d events to %s\n", len(events), *out)
	}
	return nil
}

// cmdReplay applies an event log to a base snapshot, optionally
// auditing at checkpoints.
func cmdReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		base       = fs.String("base", "", "base dataset JSON path (required)")
		logPath    = fs.String("log", "", "JSONL event log path (required)")
		out        = fs.String("out", "", "write the resulting dataset here (optional)")
		checkEvery = fs.Int("audit-every", 0, "run the detection framework every N events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *logPath == "" {
		return fmt.Errorf("replay: -base and -log are required")
	}
	ds, err := loadDataset(*base)
	if err != nil {
		return err
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := replay.ReadLog(f)
	if err != nil {
		return err
	}

	r := &replay.Replayer{Dataset: ds}
	if *checkEvery > 0 {
		r.CheckpointEvery = *checkEvery
		r.Checkpoint = func(applied int, d *rbac.Dataset) bool {
			rep, err := core.Analyze(d, core.Options{SkipSimilar: true})
			if err != nil {
				fmt.Fprintf(stdout, "checkpoint %d: audit failed: %v\n", applied, err)
				return false
			}
			fmt.Fprintf(stdout, "checkpoint after %d events: %d roles, %d same-user groups, %d same-permission groups\n",
				applied, rep.Stats.Roles,
				len(rep.SameUserGroups), len(rep.SamePermissionGroups))
			return true
		}
	}
	applied, err := r.Run(events)
	if err != nil {
		return fmt.Errorf("replay: applied %d: %w", applied, err)
	}
	fmt.Fprintf(stdout, "applied %d events; final: %+v\n", applied, ds.Stats())
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer g.Close()
		if err := ds.WriteJSON(g); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote result to %s\n", *out)
	}
	return nil
}

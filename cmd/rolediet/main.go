// Command rolediet is the command-line front end of the RBAC
// inefficiency detection framework.
//
// Subcommands:
//
//	generate     write a synthetic dataset (paper generator or org-scale)
//	analyze      run the five detectors over a dataset JSON file
//	consolidate  plan and apply safe class-4 role merges
//	optimize     full remediation plan with a reachability-checked apply
//	sweep        reproduce the Figure 2 / Figure 3 timing sweeps
//	org          reproduce the §IV-B organisation-scale audit table
//
// Run `rolediet <subcommand> -h` for per-command flags.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rolediet:", err)
		os.Exit(1)
	}
}

// run dispatches to a subcommand. It is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], stdout)
	case "analyze":
		return cmdAnalyze(args[1:], stdout)
	case "consolidate":
		return cmdConsolidate(args[1:], stdout)
	case "optimize":
		return cmdOptimize(args[1:], stdout)
	case "sweep":
		return cmdSweep(args[1:], stdout, stderr)
	case "org":
		return cmdOrg(args[1:], stdout)
	case "mine":
		return cmdMine(args[1:], stdout)
	case "suggest":
		return cmdSuggest(args[1:], stdout)
	case "diff":
		return cmdDiff(args[1:], stdout)
	case "query":
		return cmdQuery(args[1:], stdout)
	case "reconcile":
		return cmdReconcile(args[1:], stdout)
	case "replay":
		return cmdReplay(args[1:], stdout)
	case "drift":
		return cmdDrift(args[1:], stdout)
	case "bench":
		return cmdBench(args[1:], stdout, stderr)
	case "recall":
		return cmdRecall(args[1:], stdout)
	case "digest":
		return cmdDigest(args[1:], stdout)
	case "webhook":
		return cmdWebhook(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: rolediet <subcommand> [flags]

subcommands:
  generate     write a synthetic RBAC dataset as JSON
  analyze      detect the five inefficiency classes in a dataset
  consolidate  plan and apply safe role merges (class-4 groups)
  optimize     full remediation plan: eliminations, merges, optional mining
  sweep        time the three methods across matrix sizes (Figures 2-3)
  org          run the organisation-scale audit (paper section IV-B)
  mine         rebuild a minimal role set bottom-up (role mining)
  suggest      reviewable merge suggestions for similar roles (grant deltas)
  diff         compare two dataset snapshots and their audits
  query        access-review queries (who holds what, and why)
  reconcile    compute the event log between two snapshots
  replay       apply an event log to a snapshot, auditing at checkpoints
  drift        incremental drift audit between snapshots (server schema)
  bench        run the full evaluation and emit a Markdown report
  recall       quality sweep for the approximate methods (HNSW, LSH)
  digest       print a dataset's content digest (usable as dataset_ref)
  webhook      tiny alert receiver: POST bodies out as JSONL (end-to-end tests)
  help         show this message
`)
}

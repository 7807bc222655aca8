package testkit

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
)

// Failure describes one backend disagreeing with the oracle on one
// corpus. Error() carries the full reproduction recipe.
type Failure struct {
	// Backend names the disagreeing implementation.
	Backend string
	// Corpus is the input that produced the disagreement.
	Corpus Corpus
	// Detail explains the mismatch (partition diff, recall below floor,
	// false pairs, or a backend error).
	Detail string
}

// Error formats the failure with its reproduction recipe.
func (f *Failure) Error() string {
	return fmt.Sprintf("backend %s disagrees with oracle on corpus [%s]: %s", f.Backend, f.Corpus.String(), f.Detail)
}

// CheckBackend runs one backend over rows and compares against the
// already-computed oracle partition. It returns a human-readable detail
// string when the backend disagrees ("" when it agrees):
//
//   - exact backends must match the oracle partition exactly;
//   - approximate backends must have zero false pairs (they verify every
//     candidate with the true distance, so a false pair is a real bug,
//     not an accuracy artefact) and pair recall of at least b.MinRecall.
func CheckBackend(ctx context.Context, b Backend, rows []*bitvec.Vector, threshold int, oracle [][]int) string {
	got, err := b.Run(ctx, rows, threshold)
	if err != nil {
		return fmt.Sprintf("backend error: %v", err)
	}
	if b.Exact {
		if !SamePartition(oracle, got) {
			return fmt.Sprintf("partition mismatch:\n  oracle:  %s\n  backend: %s",
				FormatPartition(oracle), FormatPartition(got))
		}
		return ""
	}
	recall, falsePairs := PairStats(oracle, got)
	if falsePairs > 0 {
		return fmt.Sprintf("%d false pairs (approximate backends must never invent a pair):\n  oracle:  %s\n  backend: %s",
			falsePairs, FormatPartition(oracle), FormatPartition(got))
	}
	if recall < b.MinRecall {
		return fmt.Sprintf("recall %.3f below floor %.3f:\n  oracle:  %s\n  backend: %s",
			recall, b.MinRecall, FormatPartition(oracle), FormatPartition(got))
	}
	return ""
}

// RunCorpus computes the oracle for the corpus once and checks every
// backend against it, collecting failures instead of stopping at the
// first so a sweep reports the complete disagreement picture.
func RunCorpus(ctx context.Context, c Corpus, backends []Backend) ([]*Failure, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, fmt.Errorf("testkit: generating corpus %s: %w", c.Name, err)
	}
	oracle := Oracle(rows, c.Threshold)
	var failures []*Failure
	for _, b := range backends {
		if c.RelaxedRecall && !b.Exact {
			b.MinRecall = 0 // zero-false-pairs invariant still applies
		}
		if detail := CheckBackend(ctx, b, rows, c.Threshold, oracle); detail != "" {
			failures = append(failures, &Failure{Backend: b.Name, Corpus: c, Detail: detail})
		}
	}
	return failures, nil
}

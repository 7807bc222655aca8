// Package optimize is the remediation engine: it turns the detection
// report's findings into an ordered, explainable Plan of role-set
// changes, applies them, and proves the result equivalent.
//
// The planner composes three phases:
//
//  1. eliminations — class-1/2 roles (standalone, or connected on one
//     side only) grant nothing and are dropped outright; class-3
//     single-assignment roles are dropped only when every (user,
//     permission) pair they grant is covered by another role, checked
//     sequentially so mutually-covering pairs cannot both vanish;
//  2. merges — class-4 groups (identical users or permissions) merge
//     by consolidate's provably safe plan, and class-5 similar groups
//     merge only when their computed grant delta is empty (risk-free).
//     Every merge folds its victims into its keeper with
//     rbac.FoldRole, in place on the planner's own copy of the dataset.
//     Merging can create new duplicates, so the phase re-analyses and
//     repeats until a round adds no actions; every executed round
//     removes at least one role, so convergence is bounded by the role
//     count;
//  3. mining (opt-in) — a bounded bottom-up pass (biclique-flavored
//     FastMiner candidates over the effective user-permission relation,
//     greedy set cover) proposes a freshly mined role set, accepted
//     bi-objectively: strictly fewer roles AND no more than
//     MaxAddedEdges extra assignment edges. Mining never changes the
//     effective relation by construction — roles are only assigned to
//     users whose effective row is a superset — so the no-over-granting
//     invariant does not depend on the edge bound.
//
// Equivalence is checked, not assumed: the planner ends every run by
// passing the input and optimized datasets through the consolidate
// safety oracle (bit-exact user→permission reachability comparison on
// bitmat rows) and fails loudly if any phase broke it.
package optimize

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/rbac"
)

// Action kinds, in the vocabulary of the paper's inefficiency classes.
const (
	// KindDropRole removes a role that grants nothing (class 1/2).
	KindDropRole = "drop-role"
	// KindDropRedundant removes a single-assignment role whose every
	// grant is covered by another role (class 3).
	KindDropRedundant = "drop-redundant-role"
	// KindMergeRoles folds a role group into its first member (class 4,
	// or a risk-free class 5).
	KindMergeRoles = "merge-roles"
	// KindMineRoleset replaces the whole role set with a mined
	// decomposition of the effective relation.
	KindMineRoleset = "mine-roleset"
)

// Action is one ordered, explainable step of a Plan. Every action
// carries its own savings so a reviewer can judge steps independently,
// and enough payload that Apply can replay the plan from JSON alone.
type Action struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Class is the paper inefficiency class motivating the action
	// (1-5); 0 for mining, which goes beyond the taxonomy.
	Class int `json:"class,omitempty"`
	// Role is the dropped role for the drop kinds.
	Role rbac.RoleID `json:"role,omitempty"`
	// Keep and Remove describe a merge: Remove folds into Keep.
	Keep   rbac.RoleID   `json:"keep,omitempty"`
	Remove []rbac.RoleID `json:"remove,omitempty"`
	// Side says what a merge unions: "users" (identical user sets, fold
	// permissions), "permissions" (the symmetric case), or "both"
	// (risk-free class-5 merge folding both sides).
	Side string `json:"side,omitempty"`
	// MinedRoles is the full replacement role set for KindMineRoleset —
	// self-contained so the plan replays without re-running the miner.
	MinedRoles []MinedRole `json:"minedRoles,omitempty"`
	// RolesRemoved and EdgesDelta are this action's savings: roles
	// deleted, and the change in direct assignment edges (negative =
	// fewer edges).
	RolesRemoved int `json:"rolesRemoved"`
	EdgesDelta   int `json:"edgesDelta"`
	// Reason explains the action in one sentence.
	Reason string `json:"reason"`
}

// MinedRole is one role of a mined replacement set, by ids.
type MinedRole struct {
	ID          rbac.RoleID         `json:"id"`
	Users       []rbac.UserID       `json:"users"`
	Permissions []rbac.PermissionID `json:"permissions"`
}

// Plan is the ordered action list. Actions must be applied in order:
// later actions reference the dataset state earlier ones produced.
type Plan struct {
	Actions []Action `json:"actions"`
}

// RolesRemoved sums the roles deleted across the plan.
func (p *Plan) RolesRemoved() int {
	n := 0
	for _, a := range p.Actions {
		n += a.RolesRemoved
	}
	return n
}

// EdgesDelta sums the assignment-edge change across the plan.
func (p *Plan) EdgesDelta() int {
	n := 0
	for _, a := range p.Actions {
		n += a.EdgesDelta
	}
	return n
}

// Knobs tunes the planner. The zero value is the safe default: all
// elimination and merge phases on, mining off.
type Knobs struct {
	// Analysis tunes the detection runs driving the phases: method,
	// class-5 threshold, workers. SkipSimilar additionally disables the
	// risk-free class-5 merges. SkipGroups is ignored — the planner owns
	// which classes each phase needs.
	Analysis core.Options `json:"analysis,omitempty"`
	// Mine enables the bounded mining pass after the merge phase.
	Mine bool `json:"mine,omitempty"`
	// MaxAddedEdges is the bi-objective acceptance bound for mining: the
	// mined role set may add at most this many direct assignment edges.
	// Default 0 — mining must not grow the edge count at all.
	MaxAddedEdges int `json:"maxAddedEdges,omitempty"`
	// MaxCandidates caps the mining candidate pool (0 = unlimited); see
	// mining.Options.MaxCandidates.
	MaxCandidates int `json:"maxCandidates,omitempty"`
	// MaxRounds caps merge-convergence rounds; 0 runs to convergence,
	// which is bounded because every executed round removes a role.
	MaxRounds int `json:"maxRounds,omitempty"`
	// Workers fans the mining pass out; see mining.Options.Workers.
	Workers int `json:"workers,omitempty"`
}

// Validate checks the knobs.
func (k Knobs) Validate() error {
	if err := k.Analysis.Validate(); err != nil {
		return err
	}
	if k.MaxAddedEdges < 0 {
		return fmt.Errorf("optimize: negative max added edges %d", k.MaxAddedEdges)
	}
	if k.MaxCandidates < 0 {
		return fmt.Errorf("optimize: negative candidate cap %d", k.MaxCandidates)
	}
	if k.MaxRounds < 0 {
		return fmt.Errorf("optimize: negative max rounds %d", k.MaxRounds)
	}
	if k.Workers < 0 {
		return fmt.Errorf("optimize: negative workers %d", k.Workers)
	}
	return nil
}

// Result is one optimization run: the plan, the optimized dataset, and
// before/after shape metrics. It intentionally carries no wall-time
// fields so identical inputs produce byte-identical results (the server
// caches raw result bytes by digest and knob fingerprint).
type Result struct {
	Plan Plan `json:"plan"`
	// Before and After snapshot the dataset shapes.
	Before rbac.Stats `json:"before"`
	After  rbac.Stats `json:"after"`
	// Rounds is the number of executed merge-convergence rounds.
	Rounds int `json:"rounds"`
	// Mined reports whether a mining pass was accepted; MiningNote
	// explains a skipped or rejected pass.
	Mined      bool   `json:"mined"`
	MiningNote string `json:"miningNote,omitempty"`
	// Optimized is the resulting dataset, proven reachability-equivalent
	// to the input.
	Optimized *rbac.Dataset `json:"optimized"`
}

// Run plans and applies the full optimization pipeline on a copy of the
// dataset. The input is never modified.
func Run(d *rbac.Dataset, k Knobs) (*Result, error) {
	return RunContext(context.Background(), d, k)
}

// RunContext is Run with cooperative cancellation, threaded through
// every analysis and mining pass.
func RunContext(ctx context.Context, d *rbac.Dataset, k Knobs) (*Result, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	p := &planner{ctx: ctx, knobs: k, cur: d.Clone()}
	rep, err := p.analyze(true, true)
	if err != nil {
		return nil, err
	}
	if err := p.eliminate(rep); err != nil {
		return nil, err
	}
	if err := p.mergeToConvergence(); err != nil {
		return nil, err
	}
	note, err := p.mine()
	if err != nil {
		return nil, err
	}

	// The oracle pass: the optimized dataset must grant exactly the same
	// user→permission relation, and must never have more roles.
	if err := consolidate.VerifySafety(d, p.cur); err != nil {
		return nil, fmt.Errorf("optimize: plan broke reachability: %w", err)
	}
	if p.cur.NumRoles() > d.NumRoles() {
		return nil, fmt.Errorf("optimize: role count grew from %d to %d",
			d.NumRoles(), p.cur.NumRoles())
	}

	return &Result{
		Plan:       Plan{Actions: p.actions},
		Before:     d.Stats(),
		After:      p.cur.Stats(),
		Rounds:     p.rounds,
		Mined:      note == "",
		MiningNote: note,
		Optimized:  p.cur,
	}, nil
}

// planner carries one run's mutable state.
type planner struct {
	ctx     context.Context
	knobs   Knobs
	cur     *rbac.Dataset
	actions []Action
	rounds  int
}

// analyze runs detection on the current dataset with the planner's
// analysis options, scoped to the classes the caller needs.
func (p *planner) analyze(skipGroups, skipSimilar bool) (*core.Report, error) {
	opts := p.knobs.Analysis
	opts.SkipGroups = skipGroups
	opts.SkipSimilar = opts.SkipSimilar || skipSimilar
	opts.Progress = nil
	return core.AnalyzeContext(p.ctx, p.cur, opts)
}

// edges counts a role's direct assignment edges on both sides.
func edges(d *rbac.Dataset, ri int) int {
	return d.NumRoleUsers(ri) + d.NumRolePermissions(ri)
}

// eliminate acts on rep, a report on the current dataset: it drops the
// class-1/2 roles (they grant nothing) and the redundant class-3 roles
// (every grant covered elsewhere). Drops are only marked while the
// pass decides, so every check and edge count reads the unmodified
// dataset; one RemoveRoles compacts it at the end.
func (p *planner) eliminate(rep *core.Report) error {
	d := p.cur
	ed := newEditor(d)
	drop := func(r rbac.RoleID, ri int, kind string, class int, reason string) {
		p.actions = append(p.actions, Action{
			Kind:         kind,
			Class:        class,
			Role:         r,
			RolesRemoved: 1,
			EdgesDelta:   -edges(d, ri),
			Reason:       reason,
		})
		ed.mark(ri)
	}
	dropDead := func(roles []rbac.RoleID, class int, reason string) error {
		for _, r := range roles {
			ri, err := ed.find(r)
			if err != nil {
				return fmt.Errorf("optimize: dropped role %q not in dataset", r)
			}
			drop(r, ri, KindDropRole, class, reason)
		}
		return nil
	}
	if err := dropDead(rep.StandaloneRoles, 1, "standalone role: no users and no permissions"); err != nil {
		return err
	}
	if err := dropDead(rep.RolesWithoutUsers, 2, "grants nothing: no users hold the role"); err != nil {
		return err
	}
	if err := dropDead(rep.RolesWithoutPermissions, 2, "grants nothing: the role has no permissions"); err != nil {
		return err
	}

	// Class-3 candidates, deduplicated (a role can be single on both
	// sides) and checked sequentially, skipping dropped roles, so two
	// roles covering only each other cannot both drop. The check is a
	// greedy set-cover whose drop count depends on processing order,
	// so candidates are canonicalised by role ID — the same export in a
	// different insertion order yields the same drops.
	seen := make(map[rbac.RoleID]struct{})
	var candidates []rbac.RoleID
	for _, list := range [][]rbac.RoleID{rep.RolesWithSingleUser, rep.RolesWithSinglePermission} {
		for _, r := range list {
			if _, dup := seen[r]; !dup {
				seen[r] = struct{}{}
				candidates = append(candidates, r)
			}
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] < candidates[b] })
	holders := d.RolesByUser()
	for _, r := range candidates {
		ri, err := ed.find(r)
		if err != nil {
			continue // already dropped as class 1/2
		}
		if coveredElsewhere(d, holders, ed.gone, ri) {
			drop(r, ri, KindDropRedundant, 3,
				"single-assignment role: every grant is covered by another role")
		}
	}
	return ed.flush()
}

// coveredElsewhere reports whether every (user, permission) pair role
// index ri grants is also granted by another role not yet dropped.
// holders is d.RolesByUser(), so each pair probes only the roles that
// hold its user. The check is a universal quantifier: the order the
// pairs are visited in cannot change its result.
func coveredElsewhere(d *rbac.Dataset, holders [][]int32, dropped []bool, ri int) bool {
	for _, ui := range d.RoleUserRow(ri) {
		for _, pi := range d.RolePermissionRow(ri) {
			covered := false
			for _, oi := range holders[ui] {
				if o := int(oi); o != ri && !dropped[o] && d.RoleHasPermission(o, int(pi)) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

// mergeToConvergence runs merge rounds until one adds no actions (or
// MaxRounds is hit). Each round re-analyses: merges can create new
// identical pairs, and fresh class-5 grant deltas are computed against
// the invariant effective relation, so later rounds stay risk-free.
func (p *planner) mergeToConvergence() error {
	for {
		if p.knobs.MaxRounds > 0 && p.rounds >= p.knobs.MaxRounds {
			return nil
		}
		n, err := p.mergeRound()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		p.rounds++
	}
}

// mergeRound plans and applies one round of class-4 merges plus
// risk-free class-5 merges, returning the number of actions taken. It
// merges in place: p.cur is the planner's own copy. The class-4 victims
// are deleted before the class-5 deltas are computed, and the class-5
// victims at the end of the round.
func (p *planner) mergeRound() (int, error) {
	rep, err := p.analyze(false, false)
	if err != nil {
		return 0, err
	}
	ed := newEditor(p.cur)
	merge := func(a Action) (err error) {
		a.RolesRemoved = len(a.Remove)
		if a.EdgesDelta, err = ed.merge(a); err == nil {
			p.actions = append(p.actions, a)
		}
		return err
	}

	cplan := consolidate.FromReport(rep)
	// Claim every participant — keepers included. A merge grows its
	// keeper's assignment rows, so any class-5 delta involving a
	// participant was computed against stale rows and must wait for the
	// next round's re-analysis. Claims also keep one round's merges
	// disjoint, so each merge's edge delta is its own.
	claimed := make(map[rbac.RoleID]struct{})
	for _, m := range cplan.Merges {
		claimed[m.Keep] = struct{}{}
		for _, r := range m.Remove {
			claimed[r] = struct{}{}
		}
		side := m.Side.String()
		if err := merge(Action{
			Kind:   KindMergeRoles,
			Class:  4,
			Keep:   m.Keep,
			Remove: m.Remove,
			Side:   side,
			Reason: fmt.Sprintf("roles share identical %s; folding the other side into %q is provably safe",
				side, m.Keep),
		}); err != nil {
			return 0, err
		}
	}
	taken := len(cplan.Merges)
	if err := ed.flush(); err != nil {
		return 0, err
	}

	if p.knobs.Analysis.SkipSimilar {
		return taken, nil
	}
	suggestions, err := consolidate.SuggestSimilar(p.cur, rep)
	if err != nil {
		// Suggestions reference report roles; a class-4 merge above may
		// have removed one. Those groups are claimed and skipped below,
		// but SuggestSimilar computes deltas for all groups up front, so
		// fall back to skipping class-5 merges this round.
		return taken, nil
	}
	for _, s := range suggestions {
		if !s.RiskFree() || len(s.Roles) < 2 || slices.ContainsFunc(s.Roles, func(r rbac.RoleID) bool {
			_, c := claimed[r]
			return c
		}) {
			continue
		}
		for _, r := range s.Roles {
			claimed[r] = struct{}{}
		}
		if err := merge(Action{
			Kind:   KindMergeRoles,
			Class:  5,
			Keep:   s.Roles[0],
			Remove: s.Roles[1:],
			Side:   "both",
			Reason: fmt.Sprintf("similar roles whose merge adds zero effective grants; folding both sides into %q",
				s.Roles[0]),
		}); err != nil {
			return 0, err
		}
		taken++
	}
	return taken, ed.flush()
}

// mine runs the bounded mining pass when enabled. It returns a non-empty
// note when the pass was skipped or rejected (never an error — a miner
// that cannot improve the role set is a finding, not a failure; only
// context cancellation propagates).
func (p *planner) mine() (string, error) {
	if !p.knobs.Mine {
		return "mining disabled", nil
	}
	upa := mining.UPAFromDataset(p.cur)
	res, err := mining.MineContext(p.ctx, upa, mining.Options{
		MaxCandidates: p.knobs.MaxCandidates,
		Workers:       p.knobs.Workers,
	})
	if err != nil {
		if p.ctx.Err() != nil {
			return "", p.ctx.Err()
		}
		return fmt.Sprintf("mining skipped: %v", err), nil
	}
	rolesBefore := p.cur.NumRoles()
	if res.NumRoles() >= rolesBefore {
		return fmt.Sprintf("mining rejected: %d mined roles do not beat %d current",
			res.NumRoles(), rolesBefore), nil
	}
	// Only the edge bound needs the mined dataset, so build it after the
	// cheap role-count rejection.
	mined, err := mining.ToDataset(p.cur, res)
	if err != nil {
		return "", err
	}
	edgesBefore := p.cur.NumUserAssignments() + p.cur.NumPermissionAssignments()
	edgesAfter := mined.NumUserAssignments() + mined.NumPermissionAssignments()
	if added := edgesAfter - edgesBefore; added > p.knobs.MaxAddedEdges {
		return fmt.Sprintf("mining rejected: %d added edges exceed the %d bound",
			added, p.knobs.MaxAddedEdges), nil
	}

	p.actions = append(p.actions, Action{
		Kind:         KindMineRoleset,
		MinedRoles:   minedRoles(p.cur, res),
		RolesRemoved: rolesBefore - res.NumRoles(),
		EdgesDelta:   edgesAfter - edgesBefore,
		Reason: fmt.Sprintf("mined %d-role decomposition of the effective relation replaces %d roles",
			res.NumRoles(), rolesBefore),
	})
	p.cur = mined

	// Mined roles can share user sets; fold any such duplicates with
	// one more convergence pass so the final state is merge-clean.
	return "", p.mergeToConvergence()
}

// minedRoles flattens a mining result into the self-contained id form,
// users and permissions in source index order.
func minedRoles(src *rbac.Dataset, res *mining.Result) []MinedRole {
	out := make([]MinedRole, res.NumRoles())
	for ri, role := range res.Roles {
		mr := MinedRole{ID: rbac.RoleID(fmt.Sprintf("mined-%04d", ri))}
		for _, pi := range role {
			mr.Permissions = append(mr.Permissions, src.Permission(int(pi)))
		}
		out[ri] = mr
	}
	for ui, roles := range res.Assignment {
		for _, ri := range roles {
			out[ri].Users = append(out[ri].Users, src.User(ui))
		}
	}
	for i := range out {
		sort.Slice(out[i].Users, func(a, b int) bool { return out[i].Users[a] < out[i].Users[b] })
	}
	return out
}

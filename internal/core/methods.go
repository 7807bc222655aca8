package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/cluster/bitlsh"
	"repro/internal/cluster/dbscan"
	"repro/internal/cluster/hnsw"
	"repro/internal/cluster/rolediet"
	"repro/internal/matrix"
)

// Method selects the role-group detection algorithm (§III-C evaluates
// the three of them).
type Method int

// The paper's three methods, plus the float64 DBSCAN cost-model variant.
const (
	// MethodRoleDiet is the paper's custom algorithm: deterministic,
	// complete, and the fastest of the three.
	MethodRoleDiet Method = iota + 1
	// MethodDBSCAN is the exact-clustering baseline.
	MethodDBSCAN
	// MethodHNSW is the approximate-nearest-neighbour baseline; it may
	// miss group members (recall < 1), which the paper accepts because
	// periodic re-runs converge.
	MethodHNSW
	// MethodDBSCANFloat64 is DBSCAN over []float64 rows — the cost model
	// of the paper's scikit-learn baseline, which receives the
	// assignment matrix as a float array. The bit-packed MethodDBSCAN is
	// 20-50x faster per distance call; this variant exists so the
	// Figure 2/3 shape (including the HNSW crossover) can be reproduced
	// against a baseline with the paper's arithmetic.
	MethodDBSCANFloat64
	// MethodLSH is bit-sampling locality-sensitive hashing, a second
	// approximate baseline: exact at threshold 0, probabilistic recall
	// above, never a false pair. It extends the paper's comparison with
	// the LSH family its datasketch dependency is built around.
	MethodLSH
)

// String returns the method's name as used in CLI flags and reports.
func (m Method) String() string {
	switch m {
	case MethodRoleDiet:
		return "rolediet"
	case MethodDBSCAN:
		return "dbscan"
	case MethodHNSW:
		return "hnsw"
	case MethodDBSCANFloat64:
		return "dbscan-float64"
	case MethodLSH:
		return "lsh"
	default:
		return fmt.Sprintf("core.Method(%d)", int(m))
	}
}

// MarshalText encodes the method as its flag/JSON name, so Options
// structs marshal with "method": "rolediet" rather than an opaque int.
func (m Method) MarshalText() ([]byte, error) {
	if m == 0 {
		return []byte(""), nil
	}
	if _, err := ParseMethod(m.String()); err != nil {
		return nil, fmt.Errorf("core: cannot marshal unknown method %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a method name, rejecting unknown ones. The
// empty string decodes to the zero Method (defaulted to rolediet by
// withDefaults), so {"method": ""} and an absent field behave alike.
func (m *Method) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*m = 0
		return nil
	}
	parsed, err := ParseMethod(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMethod resolves a method name.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "rolediet":
		return MethodRoleDiet, nil
	case "dbscan":
		return MethodDBSCAN, nil
	case "hnsw":
		return MethodHNSW, nil
	case "dbscan-float64":
		return MethodDBSCANFloat64, nil
	case "lsh":
		return MethodLSH, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q", name)
	}
}

// GroupOptions tunes FindRoleGroups. The JSON form is the wire schema
// shared by the HTTP server, the jobs API, and the CLI's -options flag;
// see Options for the top-level contract.
type GroupOptions struct {
	// Method selects the algorithm; defaults to MethodRoleDiet.
	Method Method `json:"method,omitempty"`
	// Threshold is the maximum Hamming distance within a group: 0 finds
	// roles sharing the same users/permissions (class 4), k >= 1 finds
	// similar ones (class 5).
	Threshold int `json:"threshold,omitempty"`
	// HNSW carries index parameters for MethodHNSW; the zero value uses
	// the library defaults (M=16, efConstruction=200, Manhattan).
	HNSW hnsw.Config `json:"hnsw,omitempty"`
	// HNSWSearchEf is the beam width used when querying each role's
	// neighbourhood; defaults to 64.
	HNSWSearchEf int `json:"hnswSearchEf,omitempty"`
	// LSH carries index parameters for MethodLSH; the zero value picks
	// width- and threshold-dependent defaults.
	LSH bitlsh.Config `json:"lsh,omitempty"`
	// Workers fans the selected backend's hot phase out over this many
	// goroutines. 0 (the default) and 1 run the serial implementation;
	// values >= 2 select the parallel one; negative values are rejected.
	// Exact backends (rolediet, dbscan, dbscan-float64, lsh) return
	// identical results at any worker count; hnsw keeps its recall floor
	// but links may differ run to run when Workers >= 2.
	Workers int `json:"workers,omitempty"`
	// Progress, when non-nil, receives (rowsDone, totalRows) from inside
	// the grouping loops for the backends that support in-loop reporting
	// (rolediet and hnsw; dbscan and lsh report only at boundaries). Not
	// part of the wire schema.
	Progress func(done, total int) `json:"-"`
}

// UnmarshalJSON decodes the wire form, rejecting unknown method names
// (via Method.UnmarshalText) and negative thresholds, so every consumer
// of the schema applies the same validation.
func (o *GroupOptions) UnmarshalJSON(data []byte) error {
	type plain GroupOptions
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.Threshold < 0 {
		return fmt.Errorf("core: negative group threshold %d", p.Threshold)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", p.Workers)
	}
	*o = GroupOptions(p)
	return nil
}

// FindRoleGroups detects groups of roles whose rows (RUAM or RPAM) are
// identical (Threshold 0) or similar (Threshold k). Groups use the
// connected-component semantics shared by all the methods; every group
// has at least two members, members ascend, and groups are ordered by
// smallest member. Every row is grouped, all-zero ones included (the
// Analyzer drops those before it calls in). Every backend polls ctx
// inside its hot loops and aborts with ctx.Err() once it is cancelled.
func FindRoleGroups(ctx context.Context, c *matrix.CSR, opts GroupOptions) ([][]int, error) {
	if opts.Method == 0 {
		opts.Method = MethodRoleDiet
	}
	var m *bitmat.Matrix
	if opts.Method.readsArena() && c.Rows() > 0 {
		m = bitmat.FromCSR(c)
	}
	return findGroups(ctx, c, m, opts)
}

// readsArena reports whether the method's backend reads a bit-matrix
// arena: every one but Role Diet, which runs on the CSR, and the
// float64 DBSCAN, which reads its rows straight from the CSR.
func (m Method) readsArena() bool {
	return m != MethodRoleDiet && m != MethodDBSCANFloat64
}

// findGroups is the one dispatch behind FindRoleGroups and the
// Analyzer: it calls the selected backend's entry point on c, or on m,
// the arena packed from c, for the methods that read one. The Analyzer
// packs each side once, so its class-4 and class-5 runs share it.
func findGroups(ctx context.Context, c *matrix.CSR, m *bitmat.Matrix, opts GroupOptions) ([][]int, error) {
	if opts.Threshold < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", opts.Threshold)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative workers %d", opts.Workers)
	}
	if c.Rows() == 0 {
		return nil, nil
	}
	// Every backend takes Workers as-is: 0 and 1 select its serial lane.
	switch opts.Method {
	case MethodRoleDiet:
		res, err := rolediet.Run(ctx, c, rolediet.Options{
			Threshold: opts.Threshold,
			Workers:   opts.Workers,
			Progress:  opts.Progress,
		})
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	case MethodDBSCANFloat64:
		floats := make([][]float64, c.Rows())
		for i := range floats {
			floats[i] = make([]float64, c.Cols())
			for _, j := range c.RowCols(i) {
				floats[i][j] = 1
			}
		}
		res, err := dbscan.RunFloats(ctx, floats, dbscanConfig(opts))
		if err != nil {
			return nil, err
		}
		return normalizeGroups(res.Groups()), nil
	case MethodDBSCAN:
		res, err := dbscan.Run(ctx, m, dbscanConfig(opts))
		if err != nil {
			return nil, err
		}
		return normalizeGroups(res.Groups()), nil
	case MethodHNSW:
		res, err := hnsw.Run(ctx, m, hnsw.Options{
			Config:    opts.HNSW,
			Threshold: opts.Threshold,
			SearchEf:  opts.HNSWSearchEf,
			Workers:   opts.Workers,
			Progress:  opts.Progress,
		})
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	case MethodLSH:
		res, err := bitlsh.Run(ctx, m, bitlsh.Options{
			Config:    opts.LSH,
			Threshold: opts.Threshold,
			Workers:   opts.Workers,
		})
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(opts.Method))
	}
}

// dbscanConfig is the paper's DBSCAN setup for a grouping run: minPts 2
// and eps at the threshold. The small epsilon mirrors the paper's
// float-comparison guard; distances are integral so it cannot admit
// false pairs.
func dbscanConfig(opts GroupOptions) dbscan.Config {
	return dbscan.Config{
		Eps:     float64(opts.Threshold) + 1e-9,
		MinPts:  2,
		Workers: opts.Workers,
	}
}

// normalizeGroups sorts members ascending and groups by first member.
// Inputs coming from maps or label vectors already have sorted members,
// but normalisation keeps the contract independent of the source.
func normalizeGroups(groups [][]int) [][]int {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

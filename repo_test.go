package repro

// Repository-level integration tests: the shipped sample data must stay
// loadable and must reproduce the paper's Figure 1 findings end to end.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rbac"
)

func TestShippedFigure1Dataset(t *testing.T) {
	f, err := os.Open("testdata/figure1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := rbac.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-for-byte semantic parity with the programmatic fixture.
	want := rbac.Figure1()
	if ds.Stats() != want.Stats() {
		t.Fatalf("shipped dataset stats %+v, want %+v", ds.Stats(), want.Stats())
	}
	for ri := 0; ri < want.NumRoles(); ri++ {
		if !slices.Equal(ds.RoleUserRow(ri), want.RoleUserRow(ri)) || !slices.Equal(ds.RolePermissionRow(ri), want.RolePermissionRow(ri)) {
			t.Fatalf("shipped dataset's matrix row %d differs from rbac.Figure1()", ri)
		}
	}

	rep, err := core.Analyze(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SameUserGroups) != 1 || len(rep.SamePermissionGroups) != 1 {
		t.Fatalf("shipped dataset audit: %+v / %+v",
			rep.SameUserGroups, rep.SamePermissionGroups)
	}
}

// exportAllowlist names the exported functions and methods under
// internal/ that no non-test file of the root module calls, each with
// the reason it stays. TestExportsHaveProductionCallers fails on an
// entry that has gained a caller or whose declaration is gone, so the
// list only shrinks.
var exportAllowlist = map[string]string{
	// Held only by benchmark/, which times these paths beside the
	// daemon; they go once the benchmark reads the daemon's own spans.
	"internal/core.NewAnalyzer":           replay,
	"internal/store.DigestOf":             replay,
	"internal/rbac.ReadJSONStream":        replay,
	"internal/rbac.Dataset.RUAM":          replay,
	"internal/rbac.Dataset.RPAM":          replay,
	"internal/cluster/rolediet.GroupsMat": replay,

	"internal/cluster/rolediet.CooccurrenceMatrix":  "reproduces the paper's §III-C worked example and its ablation",
	"internal/cluster/rolediet.GroupsFromIndicator": "reproduces the paper's §III-C worked example and its ablation",
	"internal/server.handler.Routes":                "feeds the OpenAPI drift test",

	"internal/testkit.Corpora":       testSupport,
	"internal/testkit.RunCorpus":     testSupport,
	"internal/testkit.LoadCase":      testSupport,
	"internal/testkit.ReplayCase":    testSupport,
	"internal/testkit.ShrinkAndDump": testSupport,

	"internal/rbac.Dataset.EnsureUser":       "fixture builder for tests in a dozen packages",
	"internal/rbac.Dataset.EnsureRole":       "fixture builder for tests in a dozen packages",
	"internal/rbac.Dataset.EnsurePermission": "fixture builder for tests in a dozen packages",

	"internal/bitmat.Matrix.Intersection":      testOnly,
	"internal/bitmat.Matrix.HammingBlock":      testOnly,
	"internal/bitvec.FromIndices":              testOnly,
	"internal/bitvec.HammingBatch":             testOnly,
	"internal/bitvec.Vector.Floats":            testOnly,
	"internal/bitvec.Vector.IntersectionCount": testOnly,
	"internal/consolidate.GrantDelta":          testOnly,
	"internal/fleet.Fleet.PeerReady":           testOnly,
	"internal/hierarchy.Hierarchy.NumEdges":    testOnly,
	"internal/hierarchy.Hierarchy.WriteEdges":  testOnly,
	"internal/mining.Result.Reconstruct":       testOnly,
}

// The shared allowlist reasons.
const (
	replay      = "benchmark replay, ROADMAP direction 2"
	testSupport = "testkit is test support: the backends' differential tests call it"
	testOnly    = "called only by tests; to be deleted or moved into a test file (ROADMAP direction 3)"
)

// implicitMethods are interface methods the standard library calls on
// a program's values (encoding/json, fmt, errors, net/http, io, sort),
// so no source line names them at the call.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestExportsHaveProductionCallers parses every non-test file of the
// root module (benchmark/ is a module of its own) and checks that each
// exported function and method under internal/ is referenced by name
// somewhere other than its declaration. Matching is by name, not by
// type, so the check is a lower bound on dead code: a name that some
// other declaration shares counts as called.
func TestExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]*ast.Ident{} // key -> declaring identifier
	refs := map[string]bool{}        // every identifier name used outside a declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(path, "internal/") {
				continue
			}
			key := filepath.Dir(path) + "." + fn.Name.Name
			if fn.Recv != nil {
				if implicitMethods[fn.Name.Name] {
					continue
				}
				key = filepath.Dir(path) + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[key] = fn.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, id := range decls {
		if !refs[id.Name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s: exported, but no non-test file calls it; delete it or allowlist it with a reason", key)
		}
	}
	for key := range exportAllowlist {
		if id, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s: no such exported function or method; drop the entry", key)
		} else if refs[id.Name] {
			t.Errorf("allowlist entry %s: now has a production caller; drop the entry", key)
		}
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

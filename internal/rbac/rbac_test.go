package rbac

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// figure1Dataset builds the paper's Figure 1 example: 4 users, 5 roles,
// 6 permissions, with R01={U03}, R02={U01,U02}, R03={}, R04={U01,U02},
// R05={U04} on the user side; on the permission side R02 has no
// permissions, R04 and R05 share the same permission set, and P01 is a
// standalone permission.
func figure1Dataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset()
	for _, u := range []UserID{"U01", "U02", "U03", "U04"} {
		if err := d.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []RoleID{"R01", "R02", "R03", "R04", "R05"} {
		if err := d.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []PermissionID{"P01", "P02", "P03", "P04", "P05", "P06"} {
		if err := d.AddPermission(p); err != nil {
			t.Fatal(err)
		}
	}
	assignU := map[RoleID][]UserID{
		"R01": {"U03"},
		"R02": {"U01", "U02"},
		"R04": {"U01", "U02"},
		"R05": {"U04"},
	}
	for r, us := range assignU {
		for _, u := range us {
			if err := d.AssignUser(r, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	assignP := map[RoleID][]PermissionID{
		"R01": {"P02"},
		"R03": {"P03", "P04"},
		"R04": {"P05", "P06"},
		"R05": {"P05", "P06"},
	}
	for r, ps := range assignP {
		for _, p := range ps {
			if err := d.AssignPermission(r, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func TestAddDuplicates(t *testing.T) {
	d := NewDataset()
	if err := d.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddUser("u"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate user err = %v", err)
	}
	if err := d.AddRole("r"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRole("r"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate role err = %v", err)
	}
	if err := d.AddPermission("p"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPermission("p"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate permission err = %v", err)
	}
}

func TestAssignUnknownEntities(t *testing.T) {
	d := NewDataset()
	if err := d.AddRole("r"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPermission("p"); err != nil {
		t.Fatal(err)
	}
	if err := d.AssignUser("ghost", "u"); !errors.Is(err, ErrUnknownRole) {
		t.Errorf("err = %v, want ErrUnknownRole", err)
	}
	if err := d.AssignUser("r", "ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("err = %v, want ErrUnknownUser", err)
	}
	if err := d.AssignPermission("ghost", "p"); !errors.Is(err, ErrUnknownRole) {
		t.Errorf("err = %v, want ErrUnknownRole", err)
	}
	if err := d.AssignPermission("r", "ghost"); !errors.Is(err, ErrUnknownPermission) {
		t.Errorf("err = %v, want ErrUnknownPermission", err)
	}
}

func TestAssignIdempotent(t *testing.T) {
	d := figure1Dataset(t)
	before := d.NumUserAssignments()
	if err := d.AssignUser("R01", "U03"); err != nil {
		t.Fatal(err)
	}
	if d.NumUserAssignments() != before {
		t.Fatal("re-assigning an edge changed the count")
	}
}

func TestCounts(t *testing.T) {
	d := figure1Dataset(t)
	if d.NumUsers() != 4 || d.NumRoles() != 5 || d.NumPermissions() != 6 {
		t.Fatalf("counts = %d/%d/%d", d.NumUsers(), d.NumRoles(), d.NumPermissions())
	}
	if d.NumUserAssignments() != 6 {
		t.Fatalf("user assignments = %d, want 6", d.NumUserAssignments())
	}
	if d.NumPermissionAssignments() != 7 {
		t.Fatalf("perm assignments = %d, want 7", d.NumPermissionAssignments())
	}
	s := d.Stats()
	if s.Users != 4 || s.Roles != 5 || s.Permissions != 6 || s.UserAssignments != 6 || s.PermissionAssignments != 7 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestLookupsAndMembership(t *testing.T) {
	d := figure1Dataset(t)
	if !d.HasAssignment("R02", "U01") || d.HasAssignment("R02", "U03") {
		t.Fatal("HasAssignment wrong")
	}
	if !d.HasPermission("R04", "P05") || d.HasPermission("R02", "P05") {
		t.Fatal("HasPermission wrong")
	}
	if d.HasAssignment("ghost", "U01") || d.HasPermission("R04", "ghost") {
		t.Fatal("unknown entities reported as members")
	}
	if i, ok := d.RoleIndex("R03"); !ok || i != 2 {
		t.Fatalf("RoleIndex(R03) = (%d, %v)", i, ok)
	}
	if i, ok := d.UserIndex("U04"); !ok || i != 3 {
		t.Fatalf("UserIndex(U04) = (%d, %v)", i, ok)
	}
	if i, ok := d.PermissionIndex("P06"); !ok || i != 5 {
		t.Fatalf("PermissionIndex(P06) = (%d, %v)", i, ok)
	}
	if _, ok := d.RoleIndex("nope"); ok {
		t.Fatal("RoleIndex found ghost")
	}
}

func TestRoleUsersAndPermissionsSorted(t *testing.T) {
	d := figure1Dataset(t)
	us, err := d.RoleUsers("R04")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(us, []UserID{"U01", "U02"}) {
		t.Fatalf("RoleUsers(R04) = %v", us)
	}
	ps, err := d.RolePermissions("R03")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, []PermissionID{"P03", "P04"}) {
		t.Fatalf("RolePermissions(R03) = %v", ps)
	}
	if _, err := d.RoleUsers("ghost"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("RoleUsers ghost err = %v", err)
	}
	if _, err := d.RolePermissions("ghost"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("RolePermissions ghost err = %v", err)
	}
}

func TestRUAMMatchesPaper(t *testing.T) {
	d := figure1Dataset(t)
	ruam := d.RUAMCSR()
	if ruam.Rows() != 5 || ruam.Cols() != 4 {
		t.Fatalf("RUAM shape %dx%d", ruam.Rows(), ruam.Cols())
	}
	wantSums := []int{1, 2, 0, 2, 1}
	if got := rowSums(ruam); !reflect.DeepEqual(got, wantSums) {
		t.Fatalf("RUAM row sums = %v, want %v", got, wantSums)
	}
	// R02 and R04 rows identical.
	if !slices.Equal(ruam.RowCols(1), ruam.RowCols(3)) {
		t.Fatal("R02 and R04 RUAM rows differ")
	}
}

func TestRPAMMatchesPaper(t *testing.T) {
	d := figure1Dataset(t)
	rpam := d.RPAMCSR()
	if rpam.Rows() != 5 || rpam.Cols() != 6 {
		t.Fatalf("RPAM shape %dx%d", rpam.Rows(), rpam.Cols())
	}
	// P01 is standalone: all-zero column 0.
	var zeroCols []int
	for j, n := range rpam.ColSums() {
		if n == 0 {
			zeroCols = append(zeroCols, j)
		}
	}
	if !reflect.DeepEqual(zeroCols, []int{0}) {
		t.Fatalf("RPAM zero cols = %v, want [0]", zeroCols)
	}
	// R04 and R05 share the same permissions.
	if !slices.Equal(rpam.RowCols(3), rpam.RowCols(4)) {
		t.Fatal("R04 and R05 RPAM rows differ")
	}
	// R02 has no permissions.
	if rpam.RowSum(1) != 0 {
		t.Fatalf("R02 RPAM row sum = %d, want 0", rpam.RowSum(1))
	}
}

func TestIndexAccessorsMatchMatrices(t *testing.T) {
	// The index-space probes, set counts and user→roles index read the
	// same bits as the RUAM/RPAM cells.
	d := figure1Dataset(t)
	ruam, rpam := d.RUAM(), d.RPAM()
	holders := d.RolesByUser()
	if len(holders) != d.NumUsers() {
		t.Fatalf("RolesByUser has %d entries for %d users", len(holders), d.NumUsers())
	}
	fromMatrix := make([][]int32, d.NumUsers())
	for ri := 0; ri < d.NumRoles(); ri++ {
		if got, want := d.NumRoleUsers(ri), ruam.Row(ri).Count(); got != want {
			t.Fatalf("NumRoleUsers(%d) = %d, RUAM row sum %d", ri, got, want)
		}
		if got, want := d.NumRolePermissions(ri), rpam.Row(ri).Count(); got != want {
			t.Fatalf("NumRolePermissions(%d) = %d, RPAM row sum %d", ri, got, want)
		}
		for ui := 0; ui < d.NumUsers(); ui++ {
			if d.RoleHasUser(ri, ui) != ruam.Row(ri).Get(ui) {
				t.Fatalf("RoleHasUser(%d, %d) != RUAM cell", ri, ui)
			}
			if ruam.Row(ri).Get(ui) {
				fromMatrix[ui] = append(fromMatrix[ui], int32(ri))
			}
		}
		for pi := 0; pi < d.NumPermissions(); pi++ {
			if d.RoleHasPermission(ri, pi) != rpam.Row(ri).Get(pi) {
				t.Fatalf("RoleHasPermission(%d, %d) != RPAM cell", ri, pi)
			}
		}
	}
	if !reflect.DeepEqual(holders, fromMatrix) {
		t.Fatalf("RolesByUser = %v, RUAM columns give %v", holders, fromMatrix)
	}
}

func TestRevoke(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RevokeUser("R02", "U01"); err != nil {
		t.Fatal(err)
	}
	if d.HasAssignment("R02", "U01") {
		t.Fatal("edge survived revoke")
	}
	if err := d.RevokePermission("R04", "P05"); err != nil {
		t.Fatal(err)
	}
	if d.HasPermission("R04", "P05") {
		t.Fatal("permission survived revoke")
	}
	if err := d.RevokeUser("ghost", "U01"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("revoke ghost role err = %v", err)
	}
	if err := d.RevokeUser("R02", "ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("revoke ghost user err = %v", err)
	}
	if err := d.RevokePermission("R02", "ghost"); !errors.Is(err, ErrUnknownPermission) {
		t.Fatalf("revoke ghost perm err = %v", err)
	}
	if err := d.RevokePermission("ghost", "P05"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("revoke perm ghost role err = %v", err)
	}
}

func TestRemoveRole(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RemoveRole("R02"); err != nil {
		t.Fatal(err)
	}
	if d.NumRoles() != 4 {
		t.Fatalf("NumRoles = %d, want 4", d.NumRoles())
	}
	if _, ok := d.RoleIndex("R02"); ok {
		t.Fatal("removed role still indexed")
	}
	// Later roles shifted down; R04 is now index 2 and keeps its users.
	i, ok := d.RoleIndex("R04")
	if !ok || i != 2 {
		t.Fatalf("RoleIndex(R04) = (%d, %v), want (2, true)", i, ok)
	}
	us, err := d.RoleUsers("R04")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(us, []UserID{"U01", "U02"}) {
		t.Fatalf("R04 users after removal = %v", us)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after removal: %v", err)
	}
	if err := d.RemoveRole("ghost"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("remove ghost err = %v", err)
	}
}

func TestEnsureHelpers(t *testing.T) {
	d := NewDataset()
	i := d.EnsureUser("u1")
	if j := d.EnsureUser("u1"); j != i {
		t.Fatal("EnsureUser not idempotent")
	}
	if d.EnsureRole("r1") != 0 || d.EnsureRole("r2") != 1 {
		t.Fatal("EnsureRole index assignment wrong")
	}
	if d.EnsurePermission("p1") != 0 {
		t.Fatal("EnsurePermission wrong index")
	}
	if d.NumUsers() != 1 || d.NumRoles() != 2 || d.NumPermissions() != 1 {
		t.Fatal("Ensure helpers created wrong counts")
	}
}

func TestEffectivePermissions(t *testing.T) {
	d := figure1Dataset(t)
	eff := d.EffectivePermissions()
	// U01 is in R02 (no perms) and R04 (P05, P06).
	u01, _ := d.UserIndex("U01")
	p05, _ := d.PermissionIndex("P05")
	p06, _ := d.PermissionIndex("P06")
	if len(eff[u01]) != 2 {
		t.Fatalf("U01 effective perms = %v", eff[u01])
	}
	if !slices.Contains(eff[u01], int32(p05)) {
		t.Fatal("U01 missing P05")
	}
	if !slices.Contains(eff[u01], int32(p06)) {
		t.Fatal("U01 missing P06")
	}
	// U03 is only in R01 -> P02.
	u03, _ := d.UserIndex("U03")
	p02, _ := d.PermissionIndex("P02")
	if len(eff[u03]) != 1 {
		t.Fatalf("U03 effective perms = %v", eff[u03])
	}
	if !slices.Contains(eff[u03], int32(p02)) {
		t.Fatal("U03 missing P02")
	}
}

// TestEffectivePermissionsRows checks the rows against a walk of every
// user's roles on random datasets: each row ascends strictly and holds
// exactly the permissions of the user's roles.
func TestEffectivePermissionsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		d := NewDataset()
		users, roles, perms := 1+rng.Intn(12), 1+rng.Intn(8), 1+rng.Intn(15)
		for u := 0; u < users; u++ {
			d.EnsureUser(UserID(fmt.Sprintf("u%d", u)))
		}
		for p := 0; p < perms; p++ {
			d.EnsurePermission(PermissionID(fmt.Sprintf("p%d", p)))
		}
		for r := 0; r < roles; r++ {
			id := RoleID(fmt.Sprintf("r%d", r))
			d.EnsureRole(id)
			for k := rng.Intn(5); k > 0; k-- {
				_ = d.AssignUser(id, UserID(fmt.Sprintf("u%d", rng.Intn(users))))
				_ = d.AssignPermission(id, PermissionID(fmt.Sprintf("p%d", rng.Intn(perms))))
			}
		}
		eff := d.EffectivePermissions()
		if len(eff) != users {
			t.Fatalf("%d rows for %d users", len(eff), users)
		}
		for ui, row := range eff {
			want := map[int32]bool{}
			for ri := 0; ri < d.NumRoles(); ri++ {
				if d.RoleHasUser(ri, ui) {
					for _, p := range d.RolePermissionRow(ri) {
						want[p] = true
					}
				}
			}
			if len(row) != len(want) {
				t.Fatalf("user %d: row %v, want %d permissions", ui, row, len(want))
			}
			for k, p := range row {
				if !want[p] || (k > 0 && p <= row[k-1]) {
					t.Fatalf("user %d: row %v not the ascending set %v", ui, row, want)
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d := figure1Dataset(t)
	c := d.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.RevokeUser("R02", "U01"); err != nil {
		t.Fatal(err)
	}
	if !d.HasAssignment("R02", "U01") {
		t.Fatal("mutating clone mutated original")
	}
	if !reflect.DeepEqual(c.RUAMCSR(), c.RUAMCSR()) {
		t.Fatal("clone RUAM unstable")
	}
	// The clone's rows share one backing array; growing each of them
	// must not spill into the next.
	before := d.RUAMCSR()
	for _, r := range c.Roles() {
		for _, u := range c.Users() {
			if err := c.AssignUser(r, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumUserAssignments(), c.NumRoles()*c.NumUsers(); got != want {
		t.Fatalf("clone holds %d user edges after assigning all, want %d", got, want)
	}
	if !reflect.DeepEqual(d.RUAMCSR(), before) {
		t.Fatal("growing the clone's rows mutated the original")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(d *Dataset)
	}{
		{"out-of-range", func(d *Dataset) { d.roleUsers[0] = append(d.roleUsers[0], 99) }},
		{"unsorted", func(d *Dataset) { d.rolePerms[0] = []int32{1, 0} }},
		{"duplicate", func(d *Dataset) { d.roleUsers[1] = []int32{0, 0} }},
	} {
		d := figure1Dataset(t)
		tc.corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate missed the %s row", tc.name)
		}
	}
}

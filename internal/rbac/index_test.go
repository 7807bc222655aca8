package rbac

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// kindModel is the plain-map model of one ID kind: the IDs in position
// order and the position of each.
type kindModel struct {
	ids []string
	pos map[string]int
}

func (k *kindModel) has(id string) bool { _, ok := k.pos[id]; return ok }

func (k *kindModel) add(id string) {
	if k.pos == nil {
		k.pos = make(map[string]int)
	}
	k.pos[id] = len(k.ids)
	k.ids = append(k.ids, id)
}

// remove deletes id and renumbers the IDs after it.
func (k *kindModel) remove(id string) {
	i := k.pos[id]
	k.ids = slices.Delete(k.ids, i, i+1)
	delete(k.pos, id)
	for j := i; j < len(k.ids); j++ {
		k.pos[k.ids[j]] = j
	}
}

func (k *kindModel) clone() kindModel {
	c := kindModel{ids: slices.Clone(k.ids), pos: make(map[string]int, len(k.pos))}
	for id, i := range k.pos {
		c.pos[id] = i
	}
	return c
}

// datasetModel models a dataset's three ID kinds and its edges, keyed
// by (role, user) and (role, permission) ID pairs.
type datasetModel struct {
	users, roles, perms kindModel
	ua, pa              map[[2]string]bool
}

func newDatasetModel() *datasetModel {
	return &datasetModel{ua: make(map[[2]string]bool), pa: make(map[[2]string]bool)}
}

func (m *datasetModel) clone() *datasetModel {
	c := &datasetModel{users: m.users.clone(), roles: m.roles.clone(), perms: m.perms.clone(),
		ua: make(map[[2]string]bool, len(m.ua)), pa: make(map[[2]string]bool, len(m.pa))}
	for e := range m.ua {
		c.ua[e] = true
	}
	for e := range m.pa {
		c.pa[e] = true
	}
	return c
}

// dropEdges deletes every edge whose endpoint at side is id.
func dropEdges(edges map[[2]string]bool, side int, id string) {
	for e := range edges {
		if e[side] == id {
			delete(edges, e)
		}
	}
}

// indexPool holds the IDs the random steps draw from: the empty ID, IDs
// that are prefixes of one another, bytes that are not UTF-8 and a
// NUL, so equal hashes of unequal keys and probe runs that wrap round a
// small table both turn up.
var indexPool = func() []string {
	pool := []string{"", "a", "ab", "abc", "abcd", "b", "ba", "\xff", "\xff\xfe", "\xfe\xff",
		"\x00", "a\x00", "\x00a", "é", "é", "\xc3", "\xc3\xa9\xc3"}
	for i := 0; i < 24; i++ {
		pool = append(pool, fmt.Sprint("id", i))
	}
	return pool
}()

// checkKind checks one ID kind of d against its model: every modelled
// ID resolves to its model position and back, and every other pool ID
// is absent.
func checkKind[ID ~string](t *testing.T, kind string, m *kindModel, n int, index func(ID) (int, bool), at func(int) ID, pool []string) {
	t.Helper()
	if n != len(m.ids) {
		t.Fatalf("%d %ss, model has %d", n, kind, len(m.ids))
	}
	for i, id := range m.ids {
		if got, ok := index(ID(id)); !ok || got != i {
			t.Fatalf("%s %q resolves to (%d, %v), model says %d", kind, id, got, ok, i)
		}
		if at(i) != ID(id) {
			t.Fatalf("%s %d is %q, model says %q", kind, i, at(i), id)
		}
	}
	for _, id := range pool {
		if _, ok := index(ID(id)); ok != m.has(id) {
			t.Fatalf("%s %q present = %v, model says %v", kind, id, ok, m.has(id))
		}
	}
}

// checkModel checks d against m: all three kinds, both edge sets and
// Validate.
func checkModel(t *testing.T, d *Dataset, m *datasetModel, pool []string) {
	t.Helper()
	checkKind(t, "user", &m.users, d.NumUsers(), d.UserIndex, d.User, pool)
	checkKind(t, "role", &m.roles, d.NumRoles(), d.RoleIndex, d.Role, pool)
	checkKind(t, "permission", &m.perms, d.NumPermissions(), d.PermissionIndex, d.Permission, pool)
	if d.NumUserAssignments() != len(m.ua) || d.NumPermissionAssignments() != len(m.pa) {
		t.Fatalf("%d/%d edges, model has %d/%d",
			d.NumUserAssignments(), d.NumPermissionAssignments(), len(m.ua), len(m.pa))
	}
	for e := range m.ua {
		if !d.HasAssignment(RoleID(e[0]), UserID(e[1])) {
			t.Fatalf("user edge %q lost", e)
		}
	}
	for e := range m.pa {
		if !d.HasPermission(RoleID(e[0]), PermissionID(e[1])) {
			t.Fatalf("permission edge %q lost", e)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkAdd checks an Add* result against the model and records the ID.
func checkAdd(t *testing.T, m *kindModel, id string, err error) {
	t.Helper()
	if m.has(id) != errors.Is(err, ErrDuplicate) || !m.has(id) && err != nil {
		t.Fatalf("add %q: err %v, model has it: %v", id, err, m.has(id))
	}
	if err == nil {
		m.add(id)
	}
}

// checkEnsure checks an Ensure* result against the model and records
// the ID.
func checkEnsure(t *testing.T, m *kindModel, id string, got int) {
	t.Helper()
	if !m.has(id) {
		m.add(id)
	}
	if got != m.pos[id] {
		t.Fatalf("ensure %q = %d, model says %d", id, got, m.pos[id])
	}
}

// checkRemove checks a Remove* result against the model and applies it.
func checkRemove(t *testing.T, m *kindModel, id string, err, unknown error) bool {
	t.Helper()
	if m.has(id) == errors.Is(err, unknown) || m.has(id) && err != nil {
		t.Fatalf("remove %q: err %v, model has it: %v", id, err, m.has(id))
	}
	if err == nil {
		m.remove(id)
	}
	return err == nil
}

// TestIDIndexMatchesMapModel runs random sequences of Add*, Ensure*,
// Assign*, Remove*, RemoveRoles and Clone against a plain-map model,
// and then keeps mutating each clone and its original apart. After
// every step each dataset resolves every modelled ID to its model
// position, holds no other pool ID, holds exactly the modelled edges
// and validates.
func TestIDIndexMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		pick := func() string { return indexPool[r.Intn(len(indexPool))] }
		type subject struct {
			d *Dataset
			m *datasetModel
		}
		subjects := []subject{{NewDataset(), newDatasetModel()}}
		for step := 0; step < 600; step++ {
			si := r.Intn(len(subjects))
			d, m := subjects[si].d, subjects[si].m
			switch id := pick(); r.Intn(14) {
			case 0:
				checkAdd(t, &m.users, id, d.AddUser(UserID(id)))
			case 1:
				checkAdd(t, &m.roles, id, d.AddRole(RoleID(id)))
			case 2:
				checkAdd(t, &m.perms, id, d.AddPermission(PermissionID(id)))
			case 3:
				checkEnsure(t, &m.users, id, d.EnsureUser(UserID(id)))
			case 4:
				checkEnsure(t, &m.roles, id, d.EnsureRole(RoleID(id)))
			case 5:
				checkEnsure(t, &m.perms, id, d.EnsurePermission(PermissionID(id)))
			case 6:
				if checkRemove(t, &m.users, id, d.RemoveUser(UserID(id)), ErrUnknownUser) {
					dropEdges(m.ua, 1, id)
				}
			case 7:
				if checkRemove(t, &m.roles, id, d.RemoveRole(RoleID(id)), ErrUnknownRole) {
					dropEdges(m.ua, 0, id)
					dropEdges(m.pa, 0, id)
				}
			case 8:
				if checkRemove(t, &m.perms, id, d.RemovePermission(PermissionID(id)), ErrUnknownPermission) {
					dropEdges(m.pa, 1, id)
				}
			case 9:
				// A batch of known roles, now and then spoilt by an unknown
				// or a repeated one, which must leave the dataset as it was.
				var batch []RoleID
				for _, ri := range r.Perm(len(m.roles.ids))[:r.Intn(len(m.roles.ids)+1)] {
					batch = append(batch, RoleID(m.roles.ids[ri]))
				}
				spoilt := r.Intn(4) == 0
				if spoilt {
					if len(batch) > 0 && r.Intn(2) == 0 {
						batch = append(batch, batch[r.Intn(len(batch))])
					} else if !m.roles.has(id) {
						batch = append(batch, RoleID(id))
					} else {
						spoilt = false
					}
				}
				err := d.RemoveRoles(batch)
				if spoilt != errors.Is(err, ErrUnknownRole) || !spoilt && err != nil {
					t.Fatalf("RemoveRoles(%q) = %v, spoilt %v", batch, err, spoilt)
				}
				if !spoilt {
					for _, id := range batch {
						m.roles.remove(string(id))
						dropEdges(m.ua, 0, string(id))
						dropEdges(m.pa, 0, string(id))
					}
				}
			case 10, 11:
				if len(m.roles.ids) == 0 {
					break
				}
				role := m.roles.ids[r.Intn(len(m.roles.ids))]
				if r.Intn(2) == 0 && len(m.users.ids) > 0 {
					user := m.users.ids[r.Intn(len(m.users.ids))]
					if err := d.AssignUser(RoleID(role), UserID(user)); err != nil {
						t.Fatal(err)
					}
					m.ua[[2]string{role, user}] = true
				} else if len(m.perms.ids) > 0 {
					perm := m.perms.ids[r.Intn(len(m.perms.ids))]
					if err := d.AssignPermission(RoleID(role), PermissionID(perm)); err != nil {
						t.Fatal(err)
					}
					m.pa[[2]string{role, perm}] = true
				}
			case 12, 13:
				c := subject{d.Clone(), m.clone()}
				if len(subjects) < 4 {
					subjects = append(subjects, c)
				} else {
					subjects[r.Intn(len(subjects))] = c
				}
			}
			for _, s := range subjects {
				checkModel(t, s.d, s.m, indexPool)
			}
		}
	}
}

// TestIDIndexAcrossDoublings grows one index past 2^16 slots (35,000
// permissions, paper/10's count), through AddPermission and
// EnsurePermission by turns, checking every ID each time the count
// reaches a power of two; then removes permissions from a clone and
// from the original apart, and roles in one batch.
func TestIDIndexAcrossDoublings(t *testing.T) {
	const n = 35000
	d, m := NewDataset(), newDatasetModel()
	var pool []string
	for i := 0; i < n; i++ {
		id := fmt.Sprint("p", i)
		pool = append(pool, id)
		if i%2 == 0 {
			checkAdd(t, &m.perms, id, d.AddPermission(PermissionID(id)))
		} else {
			checkEnsure(t, &m.perms, id, d.EnsurePermission(PermissionID(id)))
		}
		if i&(i+1) == 0 {
			checkModel(t, d, m, nil)
		}
	}
	for i := 0; i < 2000; i++ {
		role := fmt.Sprint("r", i)
		checkAdd(t, &m.roles, role, d.AddRole(RoleID(role)))
		perm := pool[(i*7919)%n]
		if err := d.AssignPermission(RoleID(role), PermissionID(perm)); err != nil {
			t.Fatal(err)
		}
		m.pa[[2]string{role, perm}] = true
	}
	checkModel(t, d, m, pool)

	c, cm := d.Clone(), m.clone()
	for i := 0; i < 50; i++ {
		for _, s := range []struct {
			d *Dataset
			m *datasetModel
			p string
		}{{d, m, pool[i*101]}, {c, cm, pool[n-1-i*13]}} {
			if checkRemove(t, &s.m.perms, s.p, s.d.RemovePermission(PermissionID(s.p)), ErrUnknownPermission) {
				dropEdges(s.m.pa, 1, s.p)
			}
		}
	}
	var batch []RoleID
	for i := 0; i < 2000; i += 3 {
		batch = append(batch, RoleID(fmt.Sprint("r", i)))
	}
	if err := c.RemoveRoles(batch); err != nil {
		t.Fatal(err)
	}
	for _, id := range batch {
		cm.roles.remove(string(id))
		dropEdges(cm.pa, 0, string(id))
	}
	checkModel(t, d, m, pool)
	checkModel(t, c, cm, pool)
}

// TestValidateDetectsIndexCorruption checks Validate against ID indexes
// that no longer match their slices: a position out of range, a lost
// entry, and a role's slot holding another role's position. (Swapping
// two slots is no corruption when the two IDs share a probe run: each
// is still found.)
func TestValidateDetectsIndexCorruption(t *testing.T) {
	slot := func(t index[RoleID], pos int) int { return slices.Index(t, int32(pos+1)) }
	for _, tc := range []struct {
		name    string
		corrupt func(d *Dataset)
	}{
		{"out-of-range user position", func(d *Dataset) { d.userIdx[slices.Index(d.userIdx, 1)] = 99 }},
		{"lost permission", func(d *Dataset) { d.permIdx[slices.Index(d.permIdx, 1)] = 0 }},
		{"role indexed at another's position", func(d *Dataset) {
			d.roleIdx[slot(d.roleIdx, 0)] = d.roleIdx[slot(d.roleIdx, 1)]
		}},
	} {
		d := figure1Dataset(t)
		tc.corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate missed the %s", tc.name)
		}
	}
}

// TestIDIndexConcurrentClones clones one dataset from several
// goroutines at once, as requests clone a stored dataset, while each
// also resolves IDs in the shared original and then mutates its own
// clone. Run under -race it shows that Clone and lookups only read.
func TestIDIndexConcurrentClones(t *testing.T) {
	d := NewDataset()
	for i := 0; i < 500; i++ {
		_ = d.AddUser(UserID(fmt.Sprint("u", i)))
		_ = d.AddRole(RoleID(fmt.Sprint("r", i)))
		_ = d.AddPermission(PermissionID(fmt.Sprint("p", i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := d.Clone()
			for i := 0; i < d.NumRoles(); i++ {
				if j, ok := d.RoleIndex(d.Role(i)); !ok || j != i {
					t.Errorf("role %d resolved to %d", i, j)
					return
				}
			}
			if err := c.RemoveRole(RoleID(fmt.Sprint("r", g))); err != nil {
				t.Error(err)
			}
			if err := c.AddUser(UserID(fmt.Sprint("extra", g))); err != nil {
				t.Error(err)
			}
			if err := c.Validate(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if d.NumRoles() != 500 || d.NumUsers() != 500 {
		t.Fatalf("clones changed the original: %+v", d.Stats())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

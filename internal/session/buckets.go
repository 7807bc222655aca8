package session

import (
	"slices"

	"repro/internal/rbac"
)

// rows reads one assignment side of a dataset in role-index space: the
// RUAM for users, the RPAM for permissions. row returns a role's sorted
// column indices, id a column's entity id.
type rows struct {
	row func(ri int) []int32
	id  func(c int32) string
}

func userRows(ds *rbac.Dataset) rows {
	return rows{ds.RoleUserRow, func(c int32) string { return string(ds.User(int(c))) }}
}

func permRows(ds *rbac.Dataset) rows {
	return rows{ds.RolePermissionRow, func(c int32) string { return string(ds.Permission(int(c))) }}
}

// bucketIndex groups one side's roles by a Zobrist hash of their
// column set: the XOR of hashID over the ids of the columns held. XOR
// keeps the hash order-independent and updatable in O(1) per edge, and
// hashing ids rather than indices keeps it stable when rbac shifts
// indices on a removal. Equal sets share a bucket; unequal sets share
// one only by collision, which split separates. A role whose set is
// empty keeps its hash but sits in no bucket: it never groups (the
// framework files it under class 2), and at paper scale those roles
// would make the empty set's bucket the largest one to split.
//
// The index also keeps the side's duplicate groups current between
// audits. exact caches each bucket's groups, listing publishes all of
// them in SortGroups order, and dirty holds the hashes whose bucket
// add or remove changed since the last audit, so an audit splits only
// those buckets. A published group or listing is never written again:
// a changed bucket gets fresh groups and the listing is rebuilt
// copy-on-write, so a caller may read an earlier audit while the
// session moves on.
type bucketIndex struct {
	ds   *rbac.Dataset
	side rows

	hash    map[rbac.RoleID]uint64
	buckets map[uint64][]rbac.RoleID

	exact   map[uint64][][]rbac.RoleID
	listing [][]rbac.RoleID // nil until the first audit's full pass
	dirty   map[uint64]struct{}

	// Scratch reused across audits.
	members     []int
	gone, fresh [][]rbac.RoleID
}

// newBucketIndex hashes every role's row on one side of ds. It leaves
// the groups to the first audit.
func newBucketIndex(ds *rbac.Dataset, side rows) bucketIndex {
	x := bucketIndex{
		ds:      ds,
		side:    side,
		hash:    make(map[rbac.RoleID]uint64, ds.NumRoles()),
		buckets: make(map[uint64][]rbac.RoleID),
		exact:   make(map[uint64][][]rbac.RoleID),
		dirty:   make(map[uint64]struct{}),
	}
	for ri := 0; ri < ds.NumRoles(); ri++ {
		row := side.row(ri)
		if len(row) == 0 {
			x.hash[ds.Role(ri)] = 0
			continue
		}
		var h uint64
		for _, c := range row {
			h ^= hashID(side.id(c))
		}
		x.add(ds.Role(ri), h)
	}
	return x
}

// hashID maps an entity id to a pseudo-random word: FNV-1a over its
// bytes, then the splitmix64 finaliser to spread every input bit.
func hashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// touch marks bucket h for the next audit. Before the first audit
// there is nothing to mark: its full pass splits every bucket.
func (x *bucketIndex) touch(h uint64) {
	if x.listing != nil {
		x.dirty[h] = struct{}{}
	}
}

// add files role r, whose set is not empty, in bucket h.
func (x *bucketIndex) add(r rbac.RoleID, h uint64) {
	x.hash[r] = h
	x.buckets[h] = append(x.buckets[h], r)
	x.touch(h)
}

// file records role r's hash as the dataset now has it: in bucket h,
// or, when its set is empty, in no bucket.
func (x *bucketIndex) file(r rbac.RoleID, h uint64) {
	if ri, _ := x.ds.RoleIndex(r); len(x.side.row(ri)) == 0 {
		x.hash[r] = h
		return
	}
	x.add(r, h)
}

// remove forgets a role and returns the hash it carried.
func (x *bucketIndex) remove(r rbac.RoleID) uint64 {
	h := x.hash[r]
	delete(x.hash, r)
	b, ok := x.buckets[h]
	if !ok {
		return h
	}
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == r {
			last := len(b) - 1
			b[i], b[last] = b[last], ""
			b = b[:last]
			break
		}
	}
	if len(b) == 0 {
		delete(x.buckets, h)
	} else {
		x.buckets[h] = b
	}
	x.touch(h)
	return h
}

// toggle moves a role whose set gained or lost the column hashing to
// w. The dataset must already hold the role's new set.
func (x *bucketIndex) toggle(r rbac.RoleID, w uint64) {
	x.file(r, x.remove(r)^w)
}

// groups returns the side's duplicate groups in SortGroups order. The
// first call splits every bucket; later calls split only the buckets
// touched since the previous call and rebuild the listing only when
// some bucket's groups changed. The result is shared and read-only.
func (x *bucketIndex) groups() [][]rbac.RoleID {
	if x.listing == nil {
		x.listing = [][]rbac.RoleID{}
		for h, b := range x.buckets {
			if g := x.split(b); g != nil {
				x.exact[h] = g
				x.listing = append(x.listing, g...)
			}
		}
		slices.SortFunc(x.listing, compareLeads)
		clear(x.dirty)
		return x.listing
	}
	for h := range x.dirty {
		old, now := x.exact[h], x.split(x.buckets[h])
		if slices.EqualFunc(old, now, slices.Equal[[]rbac.RoleID]) {
			continue
		}
		x.gone = append(x.gone, old...)
		x.fresh = append(x.fresh, now...)
		if now == nil {
			delete(x.exact, h)
		} else {
			x.exact[h] = now
		}
	}
	clear(x.dirty)
	if len(x.gone)+len(x.fresh) > 0 {
		x.listing = x.relist()
		clear(x.gone)
		clear(x.fresh)
		x.gone, x.fresh = x.gone[:0], x.fresh[:0]
	}
	return x.listing
}

// relist builds a new listing: the current one without the gone
// groups, merged with the fresh ones. Leads are unique within one
// listing, as a role belongs to at most one group.
func (x *bucketIndex) relist() [][]rbac.RoleID {
	slices.SortFunc(x.gone, compareLeads)
	slices.SortFunc(x.fresh, compareLeads)
	out := make([][]rbac.RoleID, 0, len(x.listing)-len(x.gone)+len(x.fresh))
	gone, fresh := x.gone, x.fresh
	for _, g := range x.listing {
		// gone is a subsequence of the listing, in its order.
		if len(gone) > 0 && &gone[0][0] == &g[0] {
			gone = gone[1:]
			continue
		}
		for len(fresh) > 0 && fresh[0][0] < g[0] {
			out = append(out, fresh[0])
			fresh = fresh[1:]
		}
		out = append(out, g)
	}
	return append(out, fresh...)
}

// split divides one bucket's roles into exact groups by the paper's
// test run on the dataset's rows: roles i and j are one group iff
// |Rⁱ| = g⁽ⁱ'ʲ⁾ = |Rʲ|, which for sorted rows is plain row equality.
// Groups come out in SortGroups order, nil when there are none.
func (x *bucketIndex) split(b []rbac.RoleID) [][]rbac.RoleID {
	if len(b) < 2 {
		return nil
	}
	members := x.members[:0]
	for _, r := range b {
		ri, _ := x.ds.RoleIndex(r)
		members = append(members, ri)
	}
	x.members = members
	var out [][]rbac.RoleID
	for len(members) >= 2 {
		lead := members[0]
		group := []rbac.RoleID{x.ds.Role(lead)}
		rest := members[:0]
		for _, ri := range members[1:] {
			if slices.Equal(x.side.row(ri), x.side.row(lead)) {
				group = append(group, x.ds.Role(ri))
			} else {
				rest = append(rest, ri)
			}
		}
		if len(group) >= 2 {
			slices.Sort(group)
			out = append(out, group)
		}
		members = rest
	}
	slices.SortFunc(out, compareLeads)
	return out
}

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
// one only by collision, which groups splits away.
type bucketIndex struct {
	hash    map[rbac.RoleID]uint64
	buckets map[uint64][]rbac.RoleID
}

// newBucketIndex hashes every role's row on one side of ds.
func newBucketIndex(ds *rbac.Dataset, side rows) bucketIndex {
	x := bucketIndex{
		hash:    make(map[rbac.RoleID]uint64, ds.NumRoles()),
		buckets: make(map[uint64][]rbac.RoleID),
	}
	for ri := 0; ri < ds.NumRoles(); ri++ {
		var h uint64
		for _, c := range side.row(ri) {
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

func (x *bucketIndex) add(r rbac.RoleID, h uint64) {
	x.hash[r] = h
	x.buckets[h] = append(x.buckets[h], r)
}

// remove forgets a role and returns the hash it carried.
func (x *bucketIndex) remove(r rbac.RoleID) uint64 {
	h := x.hash[r]
	delete(x.hash, r)
	b := x.buckets[h]
	// Scan from the end: a role added and then assigned sits last in
	// the empty-set bucket.
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
	return h
}

// toggle moves a role whose set gained or lost the column hashing to w.
func (x *bucketIndex) toggle(r rbac.RoleID, w uint64) {
	x.add(r, x.remove(r)^w)
}

// groups splits every multi-role bucket into exact groups by the
// paper's test run on ds's rows: roles i and j are one group iff
// |Rⁱ| = g⁽ⁱ'ʲ⁾ = |Rʲ|, which for sorted rows is plain row equality.
// Empty rows are skipped: the framework files them under class 2, not
// class 4. Groups come out in SortGroups order.
func (x *bucketIndex) groups(ds *rbac.Dataset, side rows) [][]rbac.RoleID {
	out := [][]rbac.RoleID{}
	var members []int
	for _, b := range x.buckets {
		if len(b) < 2 {
			continue
		}
		members = members[:0]
		for _, r := range b {
			if ri, _ := ds.RoleIndex(r); len(side.row(ri)) > 0 {
				members = append(members, ri)
			}
		}
		for len(members) >= 2 {
			lead := members[0]
			group := []rbac.RoleID{ds.Role(lead)}
			rest := members[:0]
			for _, ri := range members[1:] {
				if slices.Equal(side.row(ri), side.row(lead)) {
					group = append(group, ds.Role(ri))
				} else {
					rest = append(rest, ri)
				}
			}
			if len(group) >= 2 {
				out = append(out, group)
			}
			members = rest
		}
	}
	SortGroups(out)
	return out
}

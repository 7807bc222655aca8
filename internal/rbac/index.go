package rbac

import (
	"fmt"
	"hash/maphash"
	"math/bits"
)

// seed keys every ID index in the process. It is random per process, so
// a client choosing ID strings cannot choose them to collide and build
// long probe chains, the guarantee Go maps give.
var seed = maphash.MakeSeed()

// index maps each ID of one kind to its position in the dataset's slice
// of those IDs. It is an open-addressed hash table with linear probing:
// a power-of-two run of slots, each holding a position plus one (zero
// is empty), never more than half full. It stores no ID, so it only
// means something next to the slice it indexes, and copying it is a
// memcpy.
type index[ID ~string] []int32

// find returns the position of id in ids, or -1, and the slot that
// holds id or would take it.
func (t index[ID]) find(ids []ID, id ID) (pos, slot int) {
	if len(t) == 0 {
		return -1, 0
	}
	m := uint64(len(t) - 1)
	for i := maphash.String(seed, string(id)) & m; ; i = (i + 1) & m {
		if p := t[i] - 1; p < 0 || ids[p] == id {
			return int(p), int(i)
		}
	}
}

// findBytes returns the position in ids of the ID spelled by b, or -1.
// It hashes and compares b where it lies, without converting it.
func (t index[ID]) findBytes(ids []ID, b []byte) int {
	if len(t) == 0 {
		return -1
	}
	m := uint64(len(t) - 1)
	for i := maphash.Bytes(seed, b) & m; ; i = (i + 1) & m {
		if p := t[i] - 1; p < 0 || string(ids[p]) == string(b) {
			return int(p)
		}
	}
}

// add appends id to *ids and indexes it, returning its position; if id
// is already there, it returns that position and false. The table
// doubles before it would pass half full.
func (t *index[ID]) add(ids *[]ID, id ID) (int, bool) {
	if 2*(len(*ids)+1) > len(*t) {
		t.grow(*ids)
	}
	p, slot := t.find(*ids, id)
	if p >= 0 {
		return p, false
	}
	p = len(*ids)
	(*t)[slot] = int32(p + 1)
	*ids = push(*ids, id)
	return p, true
}

// grow replaces the table with one twice its size (eight slots at
// first) holding the same positions.
func (t *index[ID]) grow(ids []ID) {
	next := make(index[ID], max(2*len(*t), 8))
	m := uint64(len(next) - 1)
	for p, id := range ids {
		i := maphash.String(seed, string(id)) & m
		for next[i] != 0 {
			i = (i + 1) & m
		}
		next[i] = int32(p + 1)
	}
	*t = next
}

// build returns the table add leaves after adding ids one by one, built
// in one pass: the smallest power of two of at least 2·len(ids) slots,
// eight at least, filled in position order, so it matches add's table
// slot for slot. dup is the first position whose ID repeats an earlier
// one, or -1; the table is incomplete when dup >= 0. No IDs, no table.
func build[ID ~string](ids []ID) (t index[ID], dup int) {
	if len(ids) == 0 {
		return nil, -1
	}
	t = make(index[ID], max(1<<bits.Len(uint(2*len(ids)-1)), 8))
	for p, id := range ids {
		q, slot := t.find(ids, id)
		if q >= 0 {
			return t, p
		}
		t[slot] = int32(p + 1)
	}
	return t, -1
}

// unlink takes position p, whose ID is ids[p], out of the table, leaving
// every other position as it is. Later entries of p's probe run shift
// back into the hole (backward-shift deletion), so no tombstone is left
// and lookups stay exact.
func (t index[ID]) unlink(ids []ID, p int) {
	_, hole := t.find(ids, ids[p])
	m := len(t) - 1
	for j := (hole + 1) & m; t[j] != 0; j = (j + 1) & m {
		home := int(maphash.String(seed, string(ids[t[j]-1]))) & m
		// The entry at j may move back to the hole only if its probe
		// from home passes the hole before reaching j.
		if (j-home)&m >= (j-hole)&m {
			t[hole], hole = t[j], j
		}
	}
	t[hole] = 0
}

// remove takes position p out of the table and renumbers the positions
// above it down by one, as deleting ids[p] from the slice does. It
// allocates nothing and runs in O(table).
func (t index[ID]) remove(ids []ID, p int) {
	t.unlink(ids, p)
	for i, v := range t {
		if int(v) > p+1 {
			t[i] = v - 1
		}
	}
}

// renumber moves every indexed position p to next[p].
func (t index[ID]) renumber(next []int32) {
	for i, v := range t {
		if v != 0 {
			t[i] = next[v-1] + 1
		}
	}
}

// check reports a table that does not hold exactly the positions of
// ids, kind naming them in the error.
func (t index[ID]) check(ids []ID, kind string) error {
	n := 0
	for _, v := range t {
		if v < 0 || int(v) > len(ids) {
			return fmt.Errorf("rbac: %s index holds out-of-range position %d", kind, v-1)
		}
		if v != 0 {
			n++
		}
	}
	if n != len(ids) {
		return fmt.Errorf("rbac: %s index has %d entries for %d %ss", kind, n, len(ids), kind)
	}
	return nil
}

// push appends v to s. A full s whose capacity is a power of two, as
// push itself leaves it, doubles: append alone grows a large slice
// about 1.25× at a time, which allocates about five times the slice's
// final size along the way; doubling allocates two. Any other full s
// was sized to its length, by ReadJSON or Clone, and gets append's
// growth, so one entity added to a decoded or cloned dataset does not
// double the slices holding all the others.
func push[S ~[]E, E any](s S, v E) S {
	if c := cap(s); len(s) == c && c&(c-1) == 0 {
		next := make(S, len(s), max(2*len(s), 8))
		copy(next, s)
		s = next
	}
	return append(s, v)
}

package mindex

import (
	"math/bits"
	"slices"
)

// tombSet is the set of tombstoned entry IDs as a persistent hash trie: 32
// slots a node, indexed by five bits of the ID's hash at a time, each slot
// either one ID or a deeper node. A published set is immutable, like the
// cell tree it is published with; a transaction that tombstones or purges
// an ID copies only the nodes on that ID's path — about log₃₂ of the set's
// size, a handful even for millions of tombstones — and mutates in place
// the nodes it made itself (gen, as txn.gen does for the cell tree). So a
// delete costs the same whatever the number of tombstones a compaction has
// yet to clear. The zero value is the empty set.
type tombSet struct {
	root *tombNode
	n    int
}

type tombNode struct {
	bits  uint32     // occupied slots
	slots []tombSlot // the occupied slots, in slot order
	gen   uint64     // the transaction that made the node (see txn.gen)
}

// tombSlot holds an ID (sub nil) or the node of the IDs whose hashes agree
// with each other up to this level.
type tombSlot struct {
	id  uint64
	sub *tombNode
}

// tombHash spreads the IDs over the slots. Multiplying by an odd constant is
// a bijection of uint64, so two IDs' hashes differ in some bit and part in
// at most 13 levels.
func tombHash(id uint64) uint64 { return id * 0x9E3779B97F4A7C15 }

func slotOf(h uint64, shift uint) uint32 { return 1 << (h >> shift & 31) }

// has reports whether id is tombstoned.
func (s *tombSet) has(id uint64) bool {
	h := tombHash(id)
	for n, shift := s.root, uint(0); n != nil; shift += 5 {
		bit := slotOf(h, shift)
		if n.bits&bit == 0 {
			return false
		}
		sl := &n.slots[bits.OnesCount32(n.bits&(bit-1))]
		if sl.sub == nil {
			return sl.id == id
		}
		n = sl.sub
	}
	return false
}

// add tombstones id on behalf of transaction gen, reporting whether it was
// not tombstoned before.
func (s *tombSet) add(id, gen uint64) bool {
	root, added := tombInsert(s.root, id, tombHash(id), 0, gen)
	if added {
		s.root = root
		s.n++
	}
	return added
}

// remove clears id's tombstone on behalf of transaction gen, reporting
// whether it had one.
func (s *tombSet) remove(id, gen uint64) bool {
	root, removed := tombDelete(s.root, id, tombHash(id), 0, gen)
	if removed {
		s.root = root
		s.n--
	}
	return removed
}

// ids returns the tombstoned IDs in ascending order.
func (s *tombSet) ids() []uint64 {
	out := make([]uint64, 0, s.n)
	var walk func(n *tombNode)
	walk = func(n *tombNode) {
		for _, sl := range n.slots {
			if sl.sub != nil {
				walk(sl.sub)
			} else {
				out = append(out, sl.id)
			}
		}
	}
	if s.root != nil {
		walk(s.root)
	}
	slices.Sort(out)
	return out
}

// own returns n itself when transaction gen made it, else a copy gen owns,
// with room for one more slot.
func (n *tombNode) own(gen uint64) *tombNode {
	if n.gen == gen {
		return n
	}
	return &tombNode{bits: n.bits, slots: append(make([]tombSlot, 0, len(n.slots)+1), n.slots...), gen: gen}
}

func tombInsert(n *tombNode, id, h uint64, shift uint, gen uint64) (*tombNode, bool) {
	bit := slotOf(h, shift)
	if n == nil {
		return &tombNode{bits: bit, slots: []tombSlot{{id: id}}, gen: gen}, true
	}
	i := bits.OnesCount32(n.bits & (bit - 1))
	if n.bits&bit == 0 {
		c := n.own(gen)
		c.bits |= bit
		c.slots = slices.Insert(c.slots, i, tombSlot{id: id})
		return c, true
	}
	sl := n.slots[i]
	var sub *tombNode
	switch {
	case sl.sub != nil:
		var added bool
		if sub, added = tombInsert(sl.sub, id, h, shift+5, gen); !added {
			return n, false
		}
	case sl.id == id:
		return n, false
	default:
		// Two IDs share the slot: both move one level down.
		sub = tombPair(sl.id, tombHash(sl.id), id, h, shift+5, gen)
	}
	c := n.own(gen)
	c.slots[i] = tombSlot{sub: sub}
	return c, true
}

// tombPair is the node holding two IDs whose hashes agree below shift.
func tombPair(a, ha, b, hb uint64, shift uint, gen uint64) *tombNode {
	ba, bb := slotOf(ha, shift), slotOf(hb, shift)
	if ba == bb {
		return &tombNode{bits: ba, slots: []tombSlot{{sub: tombPair(a, ha, b, hb, shift+5, gen)}}, gen: gen}
	}
	if bb < ba {
		a, b = b, a
	}
	return &tombNode{bits: ba | bb, slots: []tombSlot{{id: a}, {id: b}}, gen: gen}
}

// tombDelete removes id below n and returns what replaces n: nil once it is
// empty, and a node left holding a single ID is folded into its parent's
// slot, so the trie keeps the shape the remaining IDs alone would give it.
func tombDelete(n *tombNode, id, h uint64, shift uint, gen uint64) (*tombNode, bool) {
	if n == nil {
		return nil, false
	}
	bit := slotOf(h, shift)
	if n.bits&bit == 0 {
		return n, false
	}
	i := bits.OnesCount32(n.bits & (bit - 1))
	sl := n.slots[i]
	if sl.sub != nil {
		sub, removed := tombDelete(sl.sub, id, h, shift+5, gen)
		if !removed {
			return n, false
		}
		if sub == nil { // not for a node of two IDs or more, as a deeper one is
			return tombDrop(n, bit, i, gen), true
		}
		c := n.own(gen)
		if len(sub.slots) == 1 && sub.slots[0].sub == nil {
			c.slots[i] = sub.slots[0]
		} else {
			c.slots[i] = tombSlot{sub: sub}
		}
		return c, true
	}
	if sl.id != id {
		return n, false
	}
	return tombDrop(n, bit, i, gen), true
}

// tombDrop empties slot i (bit) of n, returning nil for an empty node.
func tombDrop(n *tombNode, bit uint32, i int, gen uint64) *tombNode {
	if n.bits == bit {
		return nil
	}
	c := n.own(gen)
	c.bits &^= bit
	c.slots = slices.Delete(c.slots, i, i+1)
	return c
}

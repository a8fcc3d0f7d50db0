package mindex

// The entry-at-a-time write algorithm, kept as the byte-for-byte reference
// the planner (bulk.go) is tested against: the paper's insert (Figure 4)
// appends every entry to its leaf bucket as it arrives and splits a leaf
// that overflows at once, re-reading its content and re-appending it to
// the children; the reference Compact rebuilds the survivors one such
// insert at a time. The planner runs exactly this bookkeeping with the
// store operations deferred, so both must publish byte-identical states.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// refInsertBulk is InsertBulk with the entries filed one at a time: the
// same validation and purge-first step, then one refInsert per entry under
// one transaction.
func refInsertBulk(ix *Index, entries []Entry) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	twins, err := ix.checkBatch(entries)
	if err != nil {
		return err
	}
	if err := ix.purgeTwins(twins); err != nil {
		return err
	}
	t := ix.begin()
	var rec Bucket
	for i := range entries {
		rec = rec.reset().appendEntry(&entries[i])
		if err := refInsert(t, rec); err != nil {
			t.commit()
			return fmt.Errorf("mindex: bulk insert entry %d: %w", i, err)
		}
	}
	t.commit()
	return nil
}

// refInsert files the one record of rec into its leaf cell: descend by the
// permutation prefix cloning the path, append to the leaf bucket, split on
// overflow. Bookkeeping (counts, bounds, loc, size) is only touched after
// the append succeeded.
func refInsert(t *txn, rec Bucket) error {
	e := rec.At(0)
	t.root = t.mutable(t.root)
	n := t.root
	path := make([]*node, 0, t.ix.cfg.MaxLevel+1)
	path = append(path, n)
	for !n.isLeaf() {
		key := e.permAt(n.level())
		c := n.child(key)
		if c == nil {
			b, err := t.ix.store.Create()
			if err != nil {
				return err
			}
			c = t.fresh(&node{
				prefix: appendPrefix(n.prefix, key),
				bucket: b,
				pin:    &pinCell{},
				box:    emptyBox(t.ix.cfg.NumPivots),
			})
			n.addKid(key, c)
		} else {
			c = t.mutable(c)
			n.setKid(key, c)
		}
		n = c
		path = append(path, n)
	}
	if err := t.ix.store.Append(n.bucket, rec); err != nil {
		return err
	}
	dists := t.ix.scratch.dists.of(&e)
	for _, pn := range path {
		pn.count++
		pn.updateBounds(dists)
	}
	t.refreshPin(n)
	t.loc[e.ID] = entryLoc{prefix: n.prefix, seq: t.ix.nextSeq}
	t.ix.nextSeq++
	t.size++
	overflow := n.count > t.ix.cfg.BucketCapacity ||
		(t.ix.cfg.EagerRootSplit && n.level() == 0)
	if overflow && n.level() < t.ix.cfg.MaxLevel {
		return refSplit(t, n)
	}
	return nil
}

// refSplit turns an overflowing leaf into an internal node, redistributing
// its bucket by the next permutation element: children are created in the
// order of their first entries, fully written, and only then is the old
// content pinned, the old bucket freed and the leaf converted.
func refSplit(t *txn, n *node) error {
	view, err := t.ix.leafView(n)
	if err != nil {
		return err
	}
	level := n.level()
	type madeChild struct {
		key int32
		n   *node
	}
	var made []madeChild
	owner := make([]int32, view.Len())
	fail := func(err error) error {
		for _, m := range made {
			t.ix.store.Free(m.n.bucket)
		}
		return err
	}
	childFor := func(key int32) (int, error) {
		for i := range made {
			if made[i].key == key {
				return i, nil
			}
		}
		b, err := t.ix.store.Create()
		if err != nil {
			return 0, err
		}
		made = append(made, madeChild{key: key, n: t.fresh(&node{
			prefix: appendPrefix(n.prefix, key),
			bucket: b,
			pin:    &pinCell{},
			box:    emptyBox(t.ix.cfg.NumPivots),
		})})
		return len(made) - 1, nil
	}
	for i := range view.Len() {
		v := view.At(i)
		ci, err := childFor(v.permAt(level))
		if err != nil {
			return fail(err)
		}
		owner[i] = int32(ci)
		c := made[ci].n
		c.count++
		if t.tombs.has(v.ID) {
			c.dead++
		}
		c.updateBounds(t.ix.scratch.dists.of(&v))
	}
	kids := make([]child, len(made))
	var content Bucket
	for ci, m := range made {
		content = content.reset()
		for i, o := range owner {
			if o == int32(ci) {
				v := view.At(i)
				content = content.appendView(&v)
			}
		}
		if err := t.ix.store.Append(m.n.bucket, content); err != nil {
			return fail(err)
		}
		kids[ci] = child{key: m.key, n: m.n}
	}
	slices.SortFunc(kids, func(a, b child) int { return cmp.Compare(a.key, b.key) })
	full := view
	n.pin.v.Store(&full)
	freeErr := t.ix.store.Free(n.bucket)
	n.kids = kids
	n.bucket = 0
	n.pin = nil
	for i := range n.kids {
		t.refreshPin(n.kids[i].n)
	}
	for i := range view.Len() {
		v := view.At(i)
		if l, ok := t.loc[v.ID]; ok {
			l.prefix = n.child(v.permAt(level)).prefix
			t.loc[v.ID] = l
		}
	}
	if freeErr != nil {
		return freeErr
	}
	for i := range n.kids {
		c := n.kids[i].n
		if c.count > t.ix.cfg.BucketCapacity && c.level() < t.ix.cfg.MaxLevel {
			if err := refSplit(t, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// refCompact is Compact with the survivors re-inserted one refInsert at a
// time, in sequence order, into a fresh root whose bucket is created
// first. It assumes success: it is run on healthy stores only.
func refCompact(ix *Index) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if !ix.dirty {
		return nil
	}
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	st := ix.state.Load()
	type seqEntry struct {
		v   EntryView
		seq uint64
	}
	var live []seqEntry
	var olds []*node
	var gather func(n *node) error
	gather = func(n *node) error {
		if n.isLeaf() {
			view, err := ix.leafView(n)
			if err != nil {
				return err
			}
			olds = append(olds, n)
			for i := range view.Len() {
				if v := view.At(i); !st.tombs.has(v.ID) {
					live = append(live, seqEntry{v: v, seq: ix.loc[v.ID].seq})
				}
			}
			return nil
		}
		for i := range n.kids {
			if err := gather(n.kids[i].n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := gather(st.root); err != nil {
		return err
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	rootBucket, err := ix.store.Create()
	if err != nil {
		return err
	}
	ix.txnGen++
	t := &txn{ix: ix, loc: make(map[uint64]entryLoc, len(live)), gen: ix.txnGen}
	t.root = t.fresh(&node{bucket: rootBucket, pin: &pinCell{}})
	for i := range live {
		rec := Bucket{img: live[i].v.Record, offs: []uint32{0}}
		if err := refInsert(t, rec); err != nil {
			return err
		}
	}
	ix.loc = t.loc
	ix.dirty = false
	t.commit()
	for _, n := range olds {
		if err := ix.store.Free(n.bucket); err != nil {
			return err
		}
	}
	return nil
}

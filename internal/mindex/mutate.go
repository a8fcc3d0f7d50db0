package mindex

// Mutation machinery for the RCU read path. Every mutator serializes on
// Index.wmu, builds its changes on path-copied nodes inside a txn, and
// publishes the result as a fresh immutable readState with one atomic
// store. Entries are filed by one writer, the planner in bulk.go, which
// both InsertBulk and Compact go through; this file holds the transaction
// itself, the batch validation, and the purge and delete steps. An insert
// batch publishes whole or not at all; the purge of the tombstoned twins
// it re-inserts publishes on its own before it, and changes no live entry.

import (
	"fmt"
	"slices"
	"sort"

	"simcloud/internal/simd"
)

// txn is one mutation transaction: a private, mutable view of the index
// state. Nodes reachable from the published snapshot are never written;
// mutable() clones them on first touch (path copying) and remembers the
// clones so later steps of the same transaction can mutate them in place.
type txn struct {
	ix   *Index
	root *node
	size int
	dead int
	// tombs starts as the published tombstone set; add and remove copy
	// only the trie nodes on their ID's path (see tombSet).
	tombs tombSet
	// loc is the entry-location map this transaction maintains — the
	// writer-private ix.loc for ordinary mutations, a fresh map for the
	// Compact rebuild.
	loc map[uint64]entryLoc
	// gen is this transaction's ownership stamp: a node whose gen matches
	// was cloned or created by this transaction and may be mutated in
	// place. Generations are handed out monotonically under wmu, so a
	// published node (stamped by some earlier transaction) can never match
	// — the stamp replaces a per-txn clone set and its map lookup on every
	// path descent.
	gen uint64
}

// begin opens a transaction over the currently published snapshot. Callers
// hold wmu and have run ensureLoc.
func (ix *Index) begin() *txn {
	st := ix.state.Load()
	ix.txnGen++
	return &txn{
		ix:    ix,
		root:  st.root,
		size:  st.size,
		dead:  st.dead,
		tombs: st.tombs,
		loc:   ix.loc,
		gen:   ix.txnGen,
	}
}

// commit publishes the transaction's state as the new snapshot. Everything
// reachable from it is immutable from this moment on.
func (t *txn) commit() {
	t.ix.state.Store(&readState{root: t.root, size: t.size, dead: t.dead, tombs: t.tombs})
}

// mutable returns a node the transaction owns: n itself when it was already
// cloned (or created) by this transaction, otherwise a shallow path-copy
// clone. The clone shares the pin cell with the original — they describe
// the same bucket.
func (t *txn) mutable(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	c := &node{
		prefix: n.prefix,
		bucket: n.bucket,
		pin:    n.pin,
		count:  n.count,
		dead:   n.dead,
		box:    n.box,
		gen:    t.gen,
		// Most entries fall inside the boxes of the cells above them, and a
		// delete changes none: the clone keeps the published box until an
		// entry actually grows it.
		boxShared: true,
	}
	if n.kids != nil {
		c.kids = slices.Clone(n.kids)
	}
	return c
}

// fresh registers a node created by this transaction as owned.
func (t *txn) fresh(n *node) *node {
	n.gen = t.gen
	return n
}

// pathTo clones the nodes along prefix — which must address an existing
// leaf — and returns the owned path, root first, leaf last.
func (t *txn) pathTo(prefix []int32) ([]*node, error) {
	t.root = t.mutable(t.root)
	n := t.root
	path := make([]*node, 0, len(prefix)+1)
	path = append(path, n)
	for n.level() < len(prefix) {
		key := prefix[n.level()]
		c := n.child(key)
		if c == nil {
			return nil, fmt.Errorf("mindex: no cell at prefix %v", prefix)
		}
		c = t.mutable(c)
		n.setKid(key, c)
		n = c
		path = append(path, n)
	}
	if !n.isLeaf() {
		return nil, fmt.Errorf("mindex: prefix %v addresses an internal cell", prefix)
	}
	return path, nil
}

// refreshPin re-pins a leaf's current full bucket view into its cell.
// Only eager-pinning storage (memory) does this on every content change;
// it is what lets memory-backed searches never touch the store at all.
func (t *txn) refreshPin(n *node) {
	if !t.ix.eagerPin {
		return
	}
	v, err := t.ix.store.View(n.bucket)
	if err != nil {
		return // unreachable for MemStore on a live bucket
	}
	n.pin.v.Store(&v)
}

// updateBounds grows the node's box over an entry's distance vector; an
// entry without distances drops the box (the cell can then no longer be
// box-pruned, but remains correct).
func (n *node) updateBounds(dists []float64) {
	if n.box == nil {
		return
	}
	if len(dists) == 0 {
		n.box = nil
		return
	}
	if n.boxShared {
		if n.box.covers(dists) {
			return
		}
		n.box, n.boxShared = slices.Clone(n.box), false
	}
	n.box.extend(dists)
}

// writeScratch is the buffers the mutators reuse from call to call, all
// guarded by Index.wmu: the content of a bucket being written — a purged
// leaf's survivors, a built leaf — and the distances of the record being
// filed. The stores copy what they keep.
type writeScratch struct {
	content Bucket
	dists   distScratch
}

// distScratch reads the distances a record stores for the box updates of a
// mutation, into one buffer reused from record to record: a record is
// filed along a whole path, and its distances are read once for it.
type distScratch []float64

// of returns v's distances, nil for a record stored without them; valid
// until the next call.
func (s *distScratch) of(v *EntryView) []float64 {
	raw := v.Dists()
	if len(raw) == 0 {
		return nil
	}
	*s = slices.Grow((*s)[:0], len(raw)/8)[:len(raw)/8]
	simd.DecodeF64LE(*s, raw)
	return *s
}

func appendPrefix(prefix []int32, key int32) []int32 {
	out := make([]int32, len(prefix)+1)
	copy(out, prefix)
	out[len(prefix)] = key
	return out
}

// purge physically removes the tombstoned entry id from its leaf and
// repairs the count/dead bookkeeping along its path. The survivors go to a
// fresh bucket with a cell of its own; the old one is pinned for published
// readers, then freed (a failed Free leaks it, the purge stands).
func (t *txn) purge(id uint64) error {
	l := t.loc[id]
	path, err := t.pathTo(l.prefix)
	if err != nil {
		return err
	}
	n := path[len(path)-1]
	view, err := t.ix.leafView(n)
	if err != nil {
		return err
	}
	// The view is read-only — the survivors' spans are copied into the
	// scratch instead of compacting in place.
	kept := t.ix.scratch.content.reset()
	removed := 0
	for i := range view.Len() {
		v := view.At(i)
		if v.ID == id {
			removed++
			continue
		}
		kept = kept.appendView(&v)
	}
	t.ix.scratch.content = kept
	var freeErr error
	if removed > 0 {
		store := t.ix.store
		fresh, err := store.Create()
		if err != nil {
			return err
		}
		if err := store.Append(fresh, kept); err != nil {
			store.Free(fresh) // best effort; the store is already failing
			return err
		}
		full := view
		n.pin.v.Store(&full)
		old := n.bucket
		n.bucket, n.pin = fresh, &pinCell{}
		t.refreshPin(n)
		for _, pn := range path {
			pn.count -= removed
			pn.dead -= removed
		}
		t.dead -= removed
		freeErr = store.Free(old)
	}
	t.tombs.remove(id, t.gen)
	delete(t.loc, id)
	t.ix.dirty = true
	return freeErr
}

// delete tombstones the given IDs; unknown or already-tombstoned IDs are
// skipped. Returns the number actually deleted.
func (t *txn) delete(ids []uint64) (int, error) {
	deleted := 0
	for _, id := range ids {
		l, ok := t.loc[id]
		if !ok {
			continue
		}
		if t.tombs.has(id) {
			continue
		}
		path, err := t.pathTo(l.prefix)
		if err != nil {
			return deleted, err
		}
		t.tombs.add(id, t.gen)
		for _, pn := range path {
			pn.dead++
		}
		t.size--
		t.dead++
		t.ix.dirty = true
		deleted++
	}
	return deleted, nil
}

// InsertBulk inserts a batch of entries under one transaction — the unit
// the construction-phase experiments measure (bulk size 1,000 in the
// paper). The batch is published as one snapshot, so concurrent readers see
// it atomically.
//
// The whole batch is validated first: every entry's shape (Config.CheckEntry),
// IDs unique within the batch, and no ID live in the index
// (ErrDuplicateID). A batch that fails any check changes nothing. Entries
// re-inserting a tombstoned ID then have their dead twins purged, and that
// purge is published on its own. Last, the planner (see bulk.go) files the
// batch: the final tree is planned first and every entry is written to the
// store exactly once, and the batch publishes whole or, on a store
// failure, not at all.
func (ix *Index) InsertBulk(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.broken != nil {
		return ix.broken
	}
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
	return ix.build(entries)
}

// checkBatch validates a whole batch without writing anything and returns
// the IDs whose tombstoned twins it re-inserts, in batch order. Callers hold
// wmu and have run ensureLoc.
func (ix *Index) checkBatch(entries []Entry) (twins []uint64, err error) {
	tombs := &ix.state.Load().tombs
	seen := &ix.bulk.seen
	seen.reset(len(entries))
	for i := range entries {
		e := &entries[i]
		err := ix.cfg.CheckEntry(e)
		if err == nil && seen.add(e.ID) {
			err = fmt.Errorf("%w: %d", ErrDuplicateID, e.ID)
		}
		if _, ok := ix.loc[e.ID]; err == nil && ok {
			if tombs.has(e.ID) {
				twins = append(twins, e.ID)
			} else {
				err = fmt.Errorf("%w: %d", ErrDuplicateID, e.ID)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("mindex: bulk insert entry %d: %w", i, err)
		}
	}
	return twins, nil
}

// purgeTwins physically removes the tombstoned records a batch re-inserts
// under their IDs, so a tombstone can never shadow the fresh record, and
// publishes the result. A purge changes no live entry, so what was purged
// before a failure publishes too. Callers hold wmu.
func (ix *Index) purgeTwins(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	t := ix.begin()
	defer t.commit()
	for _, id := range ids {
		if err := t.purge(id); err != nil {
			return err
		}
	}
	return nil
}

// Delete tombstones the entries with the given IDs: they vanish from every
// search as soon as the transaction publishes, and Compact later reclaims
// their storage. IDs that are unknown or already tombstoned are skipped;
// the count of entries actually deleted is returned.
func (ix *Index) Delete(ids []uint64) (int, error) {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if err := ix.ensureLoc(); err != nil {
		return 0, err
	}
	t := ix.begin()
	deleted, err := t.delete(ids)
	t.commit()
	return deleted, err
}

// ensureLoc builds the entry-location map when it is missing (after a
// snapshot restore). Queries never need it; the first mutation pays one
// walk over all buckets. Sequence numbers are assigned in deterministic
// tree order (preorder, children by ascending key, bucket order), so a
// later Compact rebuilds restored entries in that same order. Callers hold
// wmu.
func (ix *Index) ensureLoc() error {
	if ix.loc != nil {
		return nil
	}
	st := ix.state.Load()
	loc := make(map[uint64]entryLoc, st.size+st.dead)
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isLeaf() {
			b, err := ix.leafView(n)
			if err != nil {
				return err
			}
			for i := range b.Len() {
				loc[b.At(i).ID] = entryLoc{prefix: n.prefix, seq: ix.nextSeq}
				ix.nextSeq++
			}
			return nil
		}
		for i := range n.kids {
			if err := walk(n.kids[i].n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(st.root); err != nil {
		return err
	}
	ix.loc = loc
	return nil
}

// Compact physically drops every tombstoned entry and merges underfull
// cells back into their parents by rebuilding the cell tree from the
// surviving entries in arrival order. The post-compaction index is
// byte-identical — tree shape, cell boxes, bucket order, and therefore
// every range candidate set and ranked approximate candidate list — to a
// fresh index into which only the survivors were inserted (in their
// original arrival order). A no-op on an index untouched by deletions.
//
// The rebuild is one build of the planner (see bulk.go) into a fresh root,
// beside the published tree: the survivors are filed as views of their
// stored records and each is written once. Readers keep traversing the old
// snapshot until the one atomic publication at the end, and the old
// leaves' bucket views are pinned before the old buckets are freed, so
// even searches that started long before the compaction finish on a
// complete, consistent image. A failed rebuild frees what it made and
// leaves the index as it was.
func (ix *Index) Compact() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if !ix.dirty {
		return nil
	}
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	st := ix.state.Load()
	// Gather the survivors without touching the live tree, so any error
	// up to the final publication leaves the pre-compact index intact.
	type seqEntry struct {
		v   EntryView
		seq uint64
	}
	type oldLeaf struct {
		n    *node
		view Bucket
	}
	live := make([]seqEntry, 0, st.size)
	var olds []oldLeaf
	var gather func(n *node) error
	gather = func(n *node) error {
		if n.isLeaf() {
			view, err := ix.leafView(n)
			if err != nil {
				return err
			}
			olds = append(olds, oldLeaf{n: n, view: view})
			for i := range view.Len() {
				v := view.At(i)
				if st.tombs.has(v.ID) {
					continue
				}
				live = append(live, seqEntry{v: v, seq: ix.loc[v.ID].seq})
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

	ix.txnGen++
	t := &txn{
		ix:  ix,
		loc: make(map[uint64]entryLoc, len(live)),
		gen: ix.txnGen,
	}
	t.root = t.fresh(&node{pin: &pinCell{}})
	b := &ix.bulk
	b.begin(t, nil)
	defer b.end()
	// The fresh root's bucket is the build's first allocation, as a fresh
	// index's is; the survivors take new sequence numbers in their order.
	b.newLeaf(t.root, true)
	for i := range live {
		b.old = append(b.old, live[i].v)
		b.oldSeqs = append(b.oldSeqs, b.seq0+uint64(i))
	}
	for i := range live {
		if err := b.insert(int32(i)); err != nil {
			ix.nextSeq = b.seq0
			return err
		}
	}
	// A build into a fresh root splits no pre-existing leaf, so it has no
	// Free to fail.
	if fatal, _ := b.apply(); fatal != nil {
		return fatal
	}
	b.fileLocs()
	// Pin every old leaf's content for searches still traversing previous
	// snapshots, publish the rebuilt tree, then retire the old buckets. A
	// failing Free leaks the bucket but the rebuilt index is already fully
	// consistent, so the error is reported without rolling anything back.
	for i := range olds {
		o := olds[i]
		o.n.pin.v.Store(&o.view)
	}
	ix.loc = t.loc
	ix.dirty = false
	t.commit()
	var firstErr error
	for i := range olds {
		if err := ix.store.Free(olds[i].n.bucket); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

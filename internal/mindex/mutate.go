package mindex

// Mutation machinery for the RCU read path. Every mutator serializes on
// Index.wmu, builds its changes on path-copied nodes inside a txn, and
// publishes the result as a fresh immutable readState with one atomic
// store. The txn keeps the under-construction state consistent after every
// store operation, so a mutation that fails halfway can still publish
// (partial but coherent) progress instead of corrupting the tree — e.g. a
// failed split leaves a consistent overfull leaf behind.

import (
	"cmp"
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
	// tomb aliases the published tombstone map until tombMutable clones it
	// (copy-on-write: most transactions never touch tombstones).
	tomb      map[uint64]struct{}
	tombOwned bool
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
		ix:   ix,
		root: st.root,
		size: st.size,
		dead: st.dead,
		tomb: st.tombstones,
		loc:  ix.loc,
		gen:  ix.txnGen,
	}
}

// commit publishes the transaction's state as the new snapshot. Everything
// reachable from it is immutable from this moment on.
func (t *txn) commit() {
	t.ix.state.Store(&readState{root: t.root, size: t.size, dead: t.dead, tombstones: t.tomb})
}

// tombMutable returns a tombstone map the transaction owns and may mutate.
func (t *txn) tombMutable() map[uint64]struct{} {
	if !t.tombOwned {
		m := make(map[uint64]struct{}, len(t.tomb)+1)
		for id := range t.tomb {
			m[id] = struct{}{}
		}
		t.tomb = m
		t.tombOwned = true
	}
	return t.tomb
}

// mutable returns a node the transaction owns: n itself when it was already
// cloned (or created) by this transaction, otherwise a shallow path-copy
// clone. The clone shares the pin cell with the original — they describe
// the same bucket content era.
func (t *txn) mutable(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	c := &node{
		prefix: n.prefix,
		bucket: n.bucket,
		era:    n.era,
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
// guarded by Index.wmu: the record of the entry being inserted (see
// encode), the content of a bucket being written — a split child, a purged
// leaf's survivors, a bulk-built leaf — and the distances of the record
// being filed. The stores copy what they keep.
type writeScratch struct {
	rec, content Bucket
	dists        distScratch
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

// insertEntry is the full insert protocol: reject live duplicates, purge a
// tombstoned twin, then file the entry.
func (t *txn) insertEntry(e *Entry) error {
	if _, ok := t.loc[e.ID]; ok {
		if _, gone := t.tomb[e.ID]; !gone {
			return fmt.Errorf("%w: %d", ErrDuplicateID, e.ID)
		}
		if err := t.purge(e.ID); err != nil {
			return err
		}
	}
	return t.insert(t.encode(e))
}

// encode returns e's record as a one-record bucket, in the scratch.
func (t *txn) encode(e *Entry) Bucket {
	sc := &t.ix.scratch
	sc.rec = sc.rec.reset().appendEntry(e)
	return sc.rec
}

// firstRecord is the offset table of every one-record bucket made by
// recordBucket; nothing writes to it.
var firstRecord = [1]uint32{}

// recordBucket is the one-record bucket of v's record, aliasing it.
func recordBucket(v *EntryView) Bucket { return Bucket{img: v.Record, offs: firstRecord[:]} }

// insert files the one record of rec into its leaf cell (the server side
// of the paper's insert operation, Figure 4): descend by the permutation
// prefix cloning the path, append to the leaf bucket, split on overflow.
// Bookkeeping (counts, bounds, loc, size) is only touched after the append
// succeeded, so a failed insert leaves the transaction state unchanged.
func (t *txn) insert(rec Bucket) error {
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
		return t.split(n)
	}
	return nil
}

// split turns an overflowing leaf into an internal node, redistributing its
// bucket by the next permutation element — the recursive Voronoi step. Each
// record's span is copied to its child unread: the key comes from the
// stored permutation, the box from the stored distances. The children are
// fully built beside the leaf first, each written with one append; only
// once they are complete is the old content pinned for published readers,
// the old bucket freed and the leaf converted. A failure before that point
// frees the half-built children and leaves a consistent overfull leaf.
func (t *txn) split(n *node) error {
	view, err := t.ix.leafView(n)
	if err != nil {
		return err
	}
	level := n.level()
	// made lists the children in creation order — the order of their first
	// entries, which is the order the store allocates their buckets in —
	// and owner[i] is the child record i goes to.
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
		if _, gone := t.tomb[v.ID]; gone {
			c.dead++
		}
		c.updateBounds(t.ix.scratch.dists.of(&v))
	}
	kids := make([]child, len(made))
	sc := &t.ix.scratch
	for ci, m := range made {
		sc.content = sc.content.reset()
		for i, o := range owner {
			if o == int32(ci) {
				v := view.At(i)
				sc.content = sc.content.appendView(&v)
			}
		}
		if err := t.ix.store.Append(m.n.bucket, sc.content); err != nil {
			return fail(err)
		}
		kids[ci] = child{key: m.key, n: m.n}
	}
	slices.SortFunc(kids, func(a, b child) int { return cmp.Compare(a.key, b.key) })
	// Point of no return: pin the old content for readers of previously
	// published versions of this leaf (they share the cell), then retire
	// the bucket and convert the leaf.
	full := view
	n.pin.v.Store(&full)
	freeErr := t.ix.store.Free(n.bucket)
	n.kids = kids
	n.bucket = 0
	n.era = 0
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
	// A pathological split can put everything into one child (all objects
	// share the next permutation element); recurse so capacity is restored
	// where possible.
	for i := range n.kids {
		c := n.kids[i].n
		if c.count > t.ix.cfg.BucketCapacity && c.level() < t.ix.cfg.MaxLevel {
			if err := t.split(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func appendPrefix(prefix []int32, key int32) []int32 {
	out := make([]int32, len(prefix)+1)
	copy(out, prefix)
	out[len(prefix)] = key
	return out
}

// purge physically removes the tombstoned entry id from its bucket and
// repairs the count/dead bookkeeping along its path. The old bucket content
// is pinned for published readers before the Replace destroys it; the new
// leaf version starts a fresh content era with its own cell.
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
	if removed > 0 {
		full := view
		n.pin.v.Store(&full)
		if err := t.ix.store.Replace(n.bucket, kept); err != nil {
			return err
		}
		n.era++ // DiskStore.Replace bumped the store-side era in lockstep
		n.pin = &pinCell{}
		t.refreshPin(n)
		for _, pn := range path {
			pn.count -= removed
			pn.dead -= removed
		}
		t.dead -= removed
	}
	delete(t.tombMutable(), id)
	delete(t.loc, id)
	t.ix.dirty = true
	return nil
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
		if _, gone := t.tomb[id]; gone {
			continue
		}
		path, err := t.pathTo(l.prefix)
		if err != nil {
			return deleted, err
		}
		t.tombMutable()[id] = struct{}{}
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

// resurrect undoes a tombstone set earlier in this transaction when the
// entry is still physically present (Update's failed-insert recovery).
func (t *txn) resurrect(id uint64) {
	l, ok := t.loc[id]
	if !ok {
		return
	}
	if _, gone := t.tomb[id]; !gone {
		return
	}
	path, err := t.pathTo(l.prefix)
	if err != nil {
		return
	}
	delete(t.tombMutable(), id)
	for _, pn := range path {
		pn.dead--
	}
	t.size++
	t.dead--
}

// Insert adds an entry to the index. Inserting an ID that is live fails
// with ErrDuplicateID; inserting an ID that is tombstoned first purges the
// dead record, so at most one physical entry ever carries a given ID.
func (ix *Index) Insert(e Entry) error {
	if err := ix.CheckEntry(e); err != nil {
		return err
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	t := ix.begin()
	err := t.insertEntry(&e)
	// Publish even on error: the transaction is consistent after every
	// store operation (a failed split, for instance, leaves a valid
	// overfull leaf that the entry was appended to).
	t.commit()
	if err == nil {
		ix.ingestEntries.Add(1)
		ix.ingestBytes.Add(uint64(EncodedEntrySize(e)))
	}
	return err
}

// InsertBulk inserts a batch of entries under one transaction — the unit
// the construction-phase experiments measure (bulk size 1,000 in the
// paper). The batch is published as one snapshot, so concurrent readers see
// it atomically.
//
// Batches of at least bulkMinBatch entries take the bottom-up builder path
// (see bulk.go): the final tree is planned first and every entry is written
// to the store exactly once, skipping the per-split re-append churn of the
// incremental path. The published snapshot is byte-identical to the
// incremental result for the same arrival order. Small batches — and
// batches re-inserting tombstoned IDs, which need the purge protocol — use
// the incremental path; on error there the entries inserted so far are
// published and the failing entry reported, while the builder path is
// all-or-nothing on store failure.
func (ix *Index) InsertBulk(entries []Entry) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	if ix.bulkEligible(entries) {
		return ix.insertBulkBuilt(entries)
	}
	return ix.insertBulkIncremental(entries)
}

// insertBulkIncremental is the entry-at-a-time bulk path: every entry goes
// through the full insert protocol (append, then split on overflow). It is
// the reference implementation the builder path is equivalence-tested
// against. Callers hold wmu and have run ensureLoc.
func (ix *Index) insertBulkIncremental(entries []Entry) error {
	t := ix.begin()
	for i := range entries {
		err := ix.CheckEntry(entries[i])
		if err == nil {
			err = t.insertEntry(&entries[i])
		}
		if err != nil {
			t.commit()
			ix.recordIngest(entries, i, false)
			return fmt.Errorf("mindex: bulk insert entry %d: %w", i, err)
		}
	}
	t.commit()
	ix.recordIngest(entries, len(entries), false)
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

// Update replaces the entry carrying e.ID with e — the delete + re-insert
// of a mutable similarity cloud, performed inside one transaction: the
// single snapshot publication means no search ever observes the entry
// absent, and concurrent Updates of the same ID serialize instead of
// tripping over each other's tombstones. The old record (which may live in
// a different cell when the object moved in pivot space) is tombstoned and
// physically purged before the fresh entry is filed; an unknown ID makes
// Update a plain insert. The replacement is validated first, so an invalid
// e leaves the existing record untouched.
func (ix *Index) Update(e Entry) error {
	if err := ix.CheckEntry(e); err != nil {
		return err
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if err := ix.ensureLoc(); err != nil {
		return err
	}
	t := ix.begin()
	tombstoned, err := t.delete([]uint64{e.ID})
	if err != nil {
		t.commit()
		return err
	}
	if err := t.insertEntry(&e); err != nil {
		// Resurrect the old record when it is still physically present
		// (the tombstone is pure bookkeeping until a purge or compaction
		// touches the bucket), so a failed insert does not destroy the
		// entry it was meant to replace.
		if tombstoned == 1 {
			t.resurrect(e.ID)
		}
		t.commit()
		return err
	}
	t.commit()
	return nil
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
// The rebuild happens entirely beside the published tree: readers keep
// traversing the old snapshot until the one atomic publication at the end,
// and the old leaves' bucket views are pinned before the old buckets are
// freed, so even searches that started long before the compaction finish
// on a complete, consistent image.
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
				if _, gone := st.tombstones[v.ID]; gone {
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

	// Rebuild into fresh buckets beside the published tree, through the
	// same insert machinery a fresh index would use. On any failure the
	// new buckets are released (best effort) and nothing was published —
	// the index is untouched.
	rootBucket, err := ix.store.Create()
	if err != nil {
		return err
	}
	ix.txnGen++
	b := &txn{
		ix:   ix,
		tomb: make(map[uint64]struct{}),
		loc:  make(map[uint64]entryLoc, len(live)),
		gen:  ix.txnGen,
	}
	b.tombOwned = true
	b.root = b.fresh(&node{bucket: rootBucket, pin: &pinCell{}})
	for i := range live {
		if err := b.insert(recordBucket(&live[i].v)); err != nil {
			ix.freeSubtreeBuckets(b.root)
			return err
		}
	}
	// Pin every old leaf's content for searches still traversing previous
	// snapshots, publish the rebuilt tree, then retire the old buckets. A
	// failing Free leaks the bucket but the rebuilt index is already fully
	// consistent, so the error is reported without rolling anything back.
	for i := range olds {
		o := olds[i]
		o.n.pin.v.Store(&o.view)
	}
	ix.loc = b.loc
	ix.dirty = false
	b.commit()
	var firstErr error
	for i := range olds {
		if err := ix.store.Free(olds[i].n.bucket); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// freeSubtreeBuckets releases every bucket of a partially built subtree
// during a Compact rollback; errors are ignored (best effort on an
// already-failing path).
func (ix *Index) freeSubtreeBuckets(n *node) {
	if n == nil {
		return
	}
	if n.isLeaf() {
		ix.store.Free(n.bucket)
		return
	}
	for i := range n.kids {
		ix.freeSubtreeBuckets(n.kids[i].n)
	}
}

package mindex

// The write planner: the one code path that files entries into the cell
// tree. Index.InsertBulk sends every batch through it, whatever its size,
// and Compact rebuilds its survivors through it into a fresh root.
//
// The paper's insert (Figure 4) files one entry at a time: every entry is
// appended to its leaf bucket the moment it arrives, so a leaf that later
// overflows re-reads and re-appends its whole content once per split — an
// entry that ends up at depth d is encoded and written O(d) times, and on
// memory storage every insert also re-pins the leaf's view. The planner
// removes that churn: it first runs the entry-at-a-time algorithm's exact
// bookkeeping on path-copied nodes with every store operation *deferred*
// (the plan), then applies the net result — each entry is appended exactly
// once, to the bucket of the leaf it finally lands in, and buckets the
// entry-at-a-time algorithm would have created and later freed are
// replayed as ghost allocations that only burn their ID.
//
// Invariants (pinned by TestBulkBuildEquivalence against the entry-at-a-time
// reference kept in reference_test.go):
//
//   - Byte identity. The published snapshot — tree shape, per-node counts,
//     dead counts and cell boxes, leaf bucket IDs, the store's allocation
//     cursor, and every bucket's content order — is byte-identical (snapshot
//     codec output) to what filing the same entries one at a time in the
//     same arrival order produces. Bucket IDs match because the plan
//     records the exact sequence of Create calls the entry-at-a-time
//     algorithm would issue and the apply phase replays it against the
//     store's monotone cursor; boxes match because they are the min/max
//     over the same entries.
//   - RCU discipline. Readers of previously published snapshots are
//     untouched: appends to surviving pre-existing buckets strictly extend
//     them (published counts cover a prefix), and a pre-existing leaf the
//     build splits away has its old content pinned into the shared pin cell
//     before its bucket is freed.
//   - All-or-nothing. InsertBulk validates the whole batch before the plan
//     starts, so the plan files every entry unless a store read fails, and
//     a failed plan leaves nothing behind but path-copied nodes nobody
//     publishes. A failed apply rolls back: buckets this build materialized
//     are freed, pre-existing buckets that already received their batch
//     suffix are rewritten to their pre-batch content (after pinning it),
//     and the sequence cursor is rewound. The loc map needs no undo at
//     all — the plan never touches it, and the one sweep that files the
//     batch's records runs only after the apply phase can no longer fail.
//     Ghost IDs stay burned (IDs are never reused, so a gap is harmless).
//
// The planner's bookkeeping (the leaf records, the node→record map, the
// duplicate detector, split's key table, the descent path) lives on the
// Index and is reused from call to call under wmu: a write of a dozen
// entries would otherwise pay more for setting up the plan than for
// filing the entries.

import "fmt"

// ghostAllocator is implemented by stores whose bucket IDs come from a
// monotone cursor: createGhost burns one ID without materializing a bucket.
// Stores without it get a Create+Free pair, which has the same net effect.
type ghostAllocator interface {
	createGhost() error
}

// bulkLeaf is the deferred store work for one leaf the build touches.
type bulkLeaf struct {
	n *node
	// isNew marks a leaf created by this build (its bucket is allocated at
	// apply time); a pre-existing leaf keeps its bucket and only receives
	// the batch suffix.
	isNew bool
	// oldN is a pre-existing leaf's pre-batch entry count — what the store
	// actually holds until the apply phase runs.
	oldN int
	// items are the entries destined for this leaf as arena indices (see
	// bulkTxn.batch), in bucket content order after any pre-existing
	// content. Indices, not entries: an entry a deep tree re-files once per
	// split costs four bytes per hop instead of a struct copy, which keeps
	// the plan's allocation footprint (and GC share) flat in the tree depth.
	items []int32
}

// noLocSeq marks an item with no entry-location record (a tombstoned
// pre-existing entry swept along by a split).
const noLocSeq = ^uint64(0)

// bulkFree is one pre-existing leaf the build split away: at apply time its
// old content is pinned into the shared cell (for readers of previously
// published snapshots) and its bucket freed, in that order.
type bulkFree struct {
	pin    *pinCell
	view   Bucket
	bucket BucketID
}

// idSet is the batch validation's within-batch duplicate detector: a flat
// open-addressing probe table (≤50% load, linear probing) over the batch's
// IDs — one cheap set op per entry instead of a map assign, on a table
// reused from batch to batch.
type idSet struct {
	tab     []uint64
	mask    uint64
	hasZero bool
}

// reset empties the set and sizes it for n IDs, reusing the table's array
// when it is large enough.
func (s *idSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.tab) >= size {
		s.tab = s.tab[:size]
		clear(s.tab)
	} else {
		s.tab = make([]uint64, size)
	}
	s.mask = uint64(size - 1)
	s.hasZero = false
}

// add inserts id and reports whether it was already present. Zero is a
// valid ID; the table uses it as the empty sentinel, so it gets a flag.
func (s *idSet) add(id uint64) bool {
	if id == 0 {
		had := s.hasZero
		s.hasZero = true
		return had
	}
	h := id * 0x9E3779B97F4A7C15
	h ^= h >> 29
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		switch s.tab[i] {
		case 0:
			s.tab[i] = id
			return false
		case id:
			return true
		}
	}
}

// bulkTxn runs the plan and the apply phase of one build on top of an
// ordinary mutation transaction. One lives on the Index (Index.bulk) and
// serves every build; begin and end bracket each use, under wmu.
type bulkTxn struct {
	t    *txn
	pend map[*node]*bulkLeaf
	// recs are the leaf records of every build so far, reused: the first
	// used of them belong to the current build (see newLeaf).
	recs []*bulkLeaf
	used int
	// leaves lists every touched leaf in first-touch order (deterministic
	// apply order); entries whose node has since become internal are
	// skipped at apply time.
	leaves []*bulkLeaf
	// events is the bucket allocation replay: one element per Create call
	// the entry-at-a-time algorithm would issue, in issue order. An event
	// whose node is still a leaf at apply time materializes a bucket; one
	// whose node split again only burns the ID.
	events []*bulkLeaf
	frees  []bulkFree
	seq0   uint64
	path   []*node
	// The arena is every entry the build moves, indexed batch first: index
	// i < len(batch) is the caller's entry i (aliased, never mutated, and
	// encoded once, when the apply phase writes it), the rest stored
	// records, old[i-len(batch)]: a Compact's survivors, and the pre-batch
	// content of each leaf the build splits — a view of the record where
	// it lies, read as it is first needed and never decoded: the apply
	// phase copies its span. Leaf item lists index into it. (Encoding the
	// batch up front, so that the arena would hold views only, costs an
	// image the size of the batch and a second copy of every record: it
	// made BenchmarkBulkLoad's one-shot memory build a third slower, 17.0 →
	// 22.7 ms on a 2-CPU Xeon container.)
	batch []Entry
	old   []EntryView
	// oldSeqs carries the loc sequence numbers of old (noLocSeq for a
	// tombstoned pre-existing entry, which has no loc record); a batch
	// entry's seq is derived from its arena index instead.
	oldSeqs []uint64
	// lastLeaf memoizes the most recent leafState result; invalidated when
	// its node splits.
	lastLeaf *bulkLeaf
	// kidTab is split's key→child table, indexed by pivot key — O(1) where
	// a scan of the kids would be linear. Cleared per split call.
	kidTab []*bulkLeaf
	// seen is InsertBulk's within-batch duplicate detector.
	seen idSet
}

// begin opens a build of batch (nil for a Compact) on t.
func (b *bulkTxn) begin(t *txn, batch []Entry) {
	b.t = t
	b.batch = batch
	b.seq0 = t.ix.nextSeq
	if b.pend == nil {
		b.pend = make(map[*node]*bulkLeaf)
	}
}

// end closes a build, successful or not: it empties the bookkeeping for the
// next one and drops every reference into the tree and the store.
func (b *bulkTxn) end() {
	for _, bl := range b.recs[:b.used] {
		bl.n = nil
	}
	b.used = 0
	clear(b.pend)
	clear(b.old)
	clear(b.frees)
	b.leaves, b.events, b.frees = b.leaves[:0], b.events[:0], b.frees[:0]
	b.old, b.oldSeqs = b.old[:0], b.oldSeqs[:0]
	b.t, b.batch, b.lastLeaf = nil, nil, nil
}

// newLeaf starts the deferred-work record of leaf n, on a reused record
// when there is one. A leaf the build creates (isNew) gets its bucket at
// apply time; a pre-existing one keeps its bucket, and its record must be
// made before its count is incremented: oldN captures what the store holds.
func (b *bulkTxn) newLeaf(n *node, isNew bool) *bulkLeaf {
	if b.used == len(b.recs) {
		b.recs = append(b.recs, &bulkLeaf{})
	}
	bl := b.recs[b.used]
	b.used++
	*bl = bulkLeaf{n: n, isNew: isNew, oldN: n.count, items: bl.items[:0]}
	b.pend[n] = bl
	b.leaves = append(b.leaves, bl)
	if isNew {
		b.events = append(b.events, bl)
	}
	return bl
}

// seqAt returns the loc sequence number of an arena index: batch entry i is
// the i-th insert of the build, so its seq is derived; a stored record
// carries its seq (or the tombstone sentinel) in oldSeqs.
func (b *bulkTxn) seqAt(i int32) uint64 {
	if int(i) < len(b.batch) {
		return b.seq0 + uint64(i)
	}
	return b.oldSeqs[int(i)-len(b.batch)]
}

// id, key and dists read arena entry i's ID, its permutation element at a
// level and its distances (nil for none) — off the entry for a batch entry,
// off the stored record for a pre-batch one.
func (b *bulkTxn) id(i int32) uint64 {
	if int(i) < len(b.batch) {
		return b.batch[i].ID
	}
	return b.old[int(i)-len(b.batch)].ID
}

func (b *bulkTxn) key(i int32, level int) int32 {
	if int(i) < len(b.batch) {
		return b.batch[i].Perm[level]
	}
	return b.old[int(i)-len(b.batch)].permAt(level)
}

func (b *bulkTxn) dists(i int32) []float64 {
	if int(i) < len(b.batch) {
		return b.batch[i].Dists
	}
	return b.t.ix.scratch.dists.of(&b.old[int(i)-len(b.batch)])
}

// appendRecord appends arena entry i's record to dst: a batch entry is
// encoded, a pre-batch entry's span copied.
func (b *bulkTxn) appendRecord(dst Bucket, i int32) Bucket {
	if int(i) < len(b.batch) {
		return dst.appendEntry(&b.batch[i])
	}
	return dst.appendView(&b.old[int(i)-len(b.batch)])
}

// build files a validated batch through the planner and publishes it, or
// publishes nothing and returns the error. Callers hold wmu and have run
// ensureLoc and checkBatch.
func (ix *Index) build(entries []Entry) error {
	t := ix.begin()
	// The batch size is known up front — rebuild the loc map at its final
	// capacity so the post-apply sweep doesn't rehash it a dozen times.
	if len(entries) > len(ix.loc) {
		loc := make(map[uint64]entryLoc, len(ix.loc)+len(entries))
		for id, l := range ix.loc {
			loc[id] = l
		}
		ix.loc = loc
		t.loc = loc
	}
	b := &ix.bulk
	b.begin(t, entries)
	defer b.end()
	t.root = t.mutable(t.root)
	for i := range entries {
		if err := b.insert(int32(i)); err != nil {
			// Only the plan's own path-copied nodes saw the batch.
			ix.nextSeq = b.seq0
			return fmt.Errorf("mindex: bulk insert entry %d: %w", i, err)
		}
	}
	fatal, freeErr := b.apply()
	if fatal != nil {
		// abort rewound the tree and the store; loc was never touched.
		return fatal
	}
	b.fileLocs()
	t.commit()
	ix.recordIngest(entries)
	return freeErr
}

// fileLocs is the deferred loc pass: every filed item gets its final leaf
// prefix in one sweep, once the store can no longer force an abort.
func (b *bulkTxn) fileLocs() {
	for _, bl := range b.leaves {
		if !bl.n.isLeaf() {
			continue
		}
		for _, idx := range bl.items {
			seq := b.seqAt(idx)
			if seq == noLocSeq {
				continue
			}
			b.t.loc[b.id(idx)] = entryLoc{prefix: bl.n.prefix, seq: seq}
		}
	}
}

// leafState returns (creating on first touch) the deferred-work record of
// a leaf. The one-element memo short-circuits the map for consecutive
// entries landing in the same leaf — the common case for clustered batches.
func (b *bulkTxn) leafState(n *node) *bulkLeaf {
	if b.lastLeaf != nil && b.lastLeaf.n == n {
		return b.lastLeaf
	}
	bl, ok := b.pend[n]
	if !ok {
		bl = b.newLeaf(n, false)
	}
	b.lastLeaf = bl
	return bl
}

// insert files arena entry idx into its leaf cell (the server side of the
// paper's insert operation, Figure 4) with the store operations deferred:
// descend by the permutation prefix cloning the path, record the entry (as
// its arena index) against its leaf, split on overflow. The bookkeeping
// (counts, bounds, seq, size) is applied in exactly the entry-at-a-time
// order, so the resulting node fields are bit-identical; loc writes wait
// for the post-apply sweep.
func (b *bulkTxn) insert(idx int32) error {
	t := b.t
	n := t.root
	b.path = b.path[:0]
	b.path = append(b.path, n)
	for !n.isLeaf() {
		key := b.key(idx, n.level())
		c := n.child(key)
		if c == nil {
			c = t.fresh(&node{
				prefix: appendPrefix(n.prefix, key),
				pin:    &pinCell{},
				box:    emptyBox(t.ix.cfg.NumPivots),
			})
			n.addKid(key, c)
			b.newLeaf(c, true)
		} else if m := t.mutable(c); m != c {
			// Only re-wire the kid slot when mutable actually cloned;
			// after the first hop through a child the pointer is stable.
			n.setKid(key, m)
			c = m
		}
		n = c
		b.path = append(b.path, n)
	}
	bl := b.leafState(n)
	bl.items = append(bl.items, idx)
	dists := b.dists(idx)
	for _, pn := range b.path {
		pn.count++
		pn.updateBounds(dists)
	}
	t.ix.nextSeq++
	t.size++
	overflow := n.count > t.ix.cfg.BucketCapacity ||
		(t.ix.cfg.EagerRootSplit && n.level() == 0)
	if overflow && n.level() < t.ix.cfg.MaxLevel {
		return b.split(n)
	}
	return nil
}

// split turns an overflowing leaf into an internal node, redistributing its
// content — old bucket prefix, then batch items, in content order — by the
// next permutation element: the recursive Voronoi step. Children are
// created in key-first-occurrence order, the order the entry-at-a-time
// split issues its Create calls in, and a pre-existing source is marked for
// pin-and-free. Only the old-content read touches the store.
func (b *bulkTxn) split(n *node) error {
	t := b.t
	bl := b.pend[n]
	oldIdx0, nOld := int32(len(b.batch)+len(b.old)), 0
	if !bl.isNew {
		old, _, err := t.ix.leafViewN(n, bl.oldN, nil)
		if err != nil {
			return err
		}
		nOld = old.Len()
		// Add views of the pre-batch content to the arena, capturing each
		// entry's seq once. A live pre-existing entry's seq comes from its loc
		// record; a tombstoned one has no record and carries the sentinel
		// (the loc sweep skips it).
		for i := range nOld {
			v := old.At(i)
			b.old = append(b.old, v)
			seq := noLocSeq
			if l, ok := t.loc[v.ID]; ok {
				seq = l.seq
			}
			b.oldSeqs = append(b.oldSeqs, seq)
		}
		b.frees = append(b.frees, bulkFree{pin: n.pin, view: old, bucket: n.bucket})
	}
	level := n.level()
	var kids []child
	if need := int(t.ix.cfg.NumPivots); len(b.kidTab) < need {
		b.kidTab = make([]*bulkLeaf, need)
	} else {
		clear(b.kidTab)
	}
	childFor := func(key int32) *bulkLeaf {
		if int(key) < len(b.kidTab) {
			if cb := b.kidTab[key]; cb != nil {
				return cb
			}
		} else {
			// Out-of-range pivot key (malformed stored entry): fall back to
			// a scan of the kids made so far.
			for i := range kids {
				if kids[i].key == key {
					return b.pend[kids[i].n]
				}
			}
		}
		c := t.fresh(&node{
			prefix: appendPrefix(n.prefix, key),
			pin:    &pinCell{},
			box:    emptyBox(t.ix.cfg.NumPivots),
		})
		cb := b.newLeaf(c, true)
		i := len(kids)
		kids = append(kids, child{key: key, n: c})
		for ; i > 0 && key < kids[i-1].key; i-- {
			kids[i] = kids[i-1]
		}
		kids[i] = child{key: key, n: c}
		if int(key) < len(b.kidTab) {
			b.kidTab[key] = cb
		}
		return cb
	}
	anyTomb := t.tombs.n > 0
	file := func(idx int32) {
		cb := childFor(b.key(idx, level))
		cb.items = append(cb.items, idx)
		cb.n.count++
		if anyTomb {
			if t.tombs.has(b.id(idx)) {
				cb.n.dead++
			}
		}
		cb.n.updateBounds(b.dists(idx))
	}
	// Old content first, then batch items — bucket content order.
	for i := 0; i < nOld; i++ {
		file(oldIdx0 + int32(i))
	}
	for _, idx := range bl.items {
		file(idx)
	}
	n.kids = kids
	n.bucket = 0
	n.era = 0
	n.pin = nil
	delete(b.pend, n)
	if b.lastLeaf == bl {
		b.lastLeaf = nil
	}
	// A pathological split can put everything into one child (all objects
	// share the next permutation element); recurse so capacity is restored
	// where possible.
	for i := range n.kids {
		c := n.kids[i].n
		if c.count > t.ix.cfg.BucketCapacity && c.level() < t.ix.cfg.MaxLevel {
			if err := b.split(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply replays the plan against the store. fatal reports a failure that
// aborted and rolled back the whole build (nothing may be published);
// freeErr reports a failed Free of a split-away bucket — the built state is
// fully consistent (the bucket merely leaks), so the caller publishes and
// surfaces the error.
func (b *bulkTxn) apply() (fatal, freeErr error) {
	t := b.t
	store := t.ix.store

	// 1. Bucket allocation replay, in entry-at-a-time Create order: surviving
	// leaves materialize, split-away intermediates only burn their ID.
	for _, bl := range b.events {
		if bl.n.isLeaf() {
			id, err := store.Create()
			if err != nil {
				return b.abort(err, nil), nil
			}
			bl.n.bucket = id
		} else if err := ghostCreate(store); err != nil {
			return b.abort(err, nil), nil
		}
	}

	// 2. Content: new leaves get their full content, surviving pre-existing
	// leaves their batch suffix — each entry written exactly once, as the
	// span of its record, in one append per leaf.
	var dirty []*bulkLeaf // pre-existing buckets needing rollback on abort
	for _, bl := range b.leaves {
		if !bl.n.isLeaf() {
			continue // split away; content moved to descendants
		}
		if len(bl.items) == 0 {
			t.refreshPin(bl.n)
			continue
		}
		if !bl.isNew {
			dirty = append(dirty, bl)
		}
		sc := &t.ix.scratch
		sc.content = sc.content.reset()
		for _, idx := range bl.items {
			sc.content = b.appendRecord(sc.content, idx)
		}
		if err := store.Append(bl.n.bucket, sc.content); err != nil {
			return b.abort(err, dirty), nil
		}
		t.refreshPin(bl.n)
	}

	// 3. Point of no return: pin each split-away source's old content for
	// readers of previously published snapshots, then retire its bucket.
	for _, f := range b.frees {
		full := f.view
		f.pin.v.Store(&full)
		if err := store.Free(f.bucket); err != nil && freeErr == nil {
			freeErr = err
		}
	}
	return nil, freeErr
}

// abort rolls the build back after a store failure: free what was
// materialized, restore pre-existing buckets that already took their batch
// suffix (pin first, so published readers never notice), and rewind the
// sequence cursor. Returns cause for convenience.
func (b *bulkTxn) abort(cause error, dirty []*bulkLeaf) error {
	t := b.t
	store := t.ix.store
	for _, bl := range b.events {
		if bl.n.isLeaf() && bl.n.bucket != 0 {
			store.Free(bl.n.bucket) // best effort
		}
	}
	for _, bl := range dirty {
		// The bucket's first oldN entries are its pre-batch content
		// (appends strictly extend). Pin them, then rewrite the bucket back
		// to exactly that; the Replace bumps the content era, which sends
		// published node versions to the pin.
		v, err := store.View(bl.n.bucket)
		if err != nil || v.Len() < bl.oldN {
			continue // best effort; the store is already failing
		}
		old := v.prefix(bl.oldN)
		bl.n.pin.v.Store(&old)
		store.Replace(bl.n.bucket, old)
	}
	t.ix.nextSeq = b.seq0
	return cause
}

// ghostCreate burns one bucket ID. Stores without the fast path pay a
// Create+Free pair, which leaves the same net state.
func ghostCreate(s BucketStore) error {
	if g, ok := s.(ghostAllocator); ok {
		return g.createGhost()
	}
	id, err := s.Create()
	if err != nil {
		return err
	}
	return s.Free(id)
}

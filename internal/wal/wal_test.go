package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"simcloud/internal/mindex"
)

func testEntry(id uint64) mindex.Entry {
	return mindex.Entry{
		ID:      id,
		Perm:    []int32{int32(id % 8), int32((id + 3) % 8), int32((id + 5) % 8)},
		Dists:   []float64{float64(id) * 0.25, float64(id) * 0.5},
		Payload: []byte{byte(id), byte(id >> 8), 0xAB},
		Vec:     []float32{float32(id), float32(id) + 0.5},
	}
}

func deleteRef(id uint64) mindex.Entry {
	return mindex.Entry{ID: id, Perm: []int32{int32(id % 8)}}
}

func testRecords() []Record {
	return []Record{
		{Op: OpInsert, Entries: []mindex.Entry{testEntry(1), testEntry(2), testEntry(3)}},
		{Op: OpInsert, Entries: []mindex.Entry{testEntry(4)}},
		{Op: OpDelete, Entries: []mindex.Entry{deleteRef(2), deleteRef(4)}},
	}
}

func mustOpen(t *testing.T, dir string, policy SyncPolicy) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, policy)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpen(t, dir, SyncAlways)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	size := l.Size()
	if size == 0 {
		t.Fatal("Size() == 0 after appends")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := mustOpen(t, dir, SyncAlways)
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if l2.Size() != size {
		t.Fatalf("reopened size %d, want %d", l2.Size(), size)
	}
	// Appends after reopen extend, not clobber.
	extra := Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(9)}}
	if err := l2.Append(extra); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	l2.Close()
	l3, got3 := mustOpen(t, dir, SyncAlways)
	defer l3.Close()
	if !reflect.DeepEqual(got3, append(want, extra)) {
		t.Fatalf("replay after reopen-append mismatch: got %d records", len(got3))
	}
}

// TestTornTailRecovery truncates the log at every byte offset of the final
// record (header byte 1 through last payload byte) and asserts replay
// recovers exactly the fully-written prefix — the crash-mid-append
// guarantee — under both fsync policies.
func TestTornTailRecovery(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever, SyncGroup} {
		var name string
		switch policy {
		case SyncAlways:
			name = "always"
		case SyncNever:
			name = "never"
		case SyncGroup:
			name = "group"
		}
		t.Run(name, func(t *testing.T) {
			master := t.TempDir()
			l, _ := mustOpen(t, master, policy)
			recs := testRecords()
			prefix := recs[:len(recs)-1]
			for _, rec := range prefix {
				if err := l.Append(rec); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			lastStart := l.Size()
			if err := l.Append(recs[len(recs)-1]); err != nil {
				t.Fatalf("Append: %v", err)
			}
			full := l.Size()
			l.Close()
			data, err := os.ReadFile(filepath.Join(master, FileName))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != full {
				t.Fatalf("file is %d bytes, Size() said %d", len(data), full)
			}

			for cut := lastStart; cut < full; cut++ {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, FileName), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				l2, got := mustOpen(t, dir, policy)
				if !reflect.DeepEqual(got, prefix) {
					t.Fatalf("cut at byte %d: recovered %d records, want the %d-record prefix",
						cut, len(got), len(prefix))
				}
				// The torn tail must be gone from disk so the next append
				// starts at a record boundary.
				st, err := os.Stat(filepath.Join(dir, FileName))
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() != lastStart {
					t.Fatalf("cut at byte %d: file not truncated to %d (got %d)",
						cut, lastStart, st.Size())
				}
				if err := l2.Append(recs[len(recs)-1]); err != nil {
					t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
				}
				l2.Close()
				_, again := mustOpen(t, dir, policy)
				if !reflect.DeepEqual(again, recs) {
					t.Fatalf("cut at byte %d: re-append then replay mismatch", cut)
				}
			}
		})
	}
}

// A flipped payload byte in a non-final record makes everything from that
// record on a torn tail: replay keeps only the records before it.
func TestCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, SyncNever)
	recs := testRecords()
	var offsets []int64
	for _, rec := range recs {
		offsets = append(offsets, l.Size())
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+8] ^= 0xFF // first payload byte of record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, got := mustOpen(t, dir, SyncNever)
	defer l2.Close()
	if !reflect.DeepEqual(got, recs[:1]) {
		t.Fatalf("recovered %d records after mid-log corruption, want 1", len(got))
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, SyncAlways)
	for _, rec := range testRecords() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size() == %d after Reset", l.Size())
	}
	post := Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(7)}}
	if err := l.Append(post); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got := mustOpen(t, dir, SyncAlways)
	defer l2.Close()
	if !reflect.DeepEqual(got, []Record{post}) {
		t.Fatalf("replay after Reset: got %d records, want 1 (the post-Reset append)", len(got))
	}
}

type fakeApplier struct {
	inserted []mindex.Entry
	deleted  []uint64
}

func (a *fakeApplier) InsertBulk(entries []mindex.Entry) error {
	a.inserted = append(a.inserted, entries...)
	return nil
}

func (a *fakeApplier) Delete(refs []mindex.Entry) (int, error) {
	for _, r := range refs {
		a.deleted = append(a.deleted, r.ID)
	}
	return len(refs), nil
}

func TestReplay(t *testing.T) {
	var a fakeApplier
	if err := Replay(testRecords(), &a); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(a.inserted) != 4 {
		t.Fatalf("replayed %d inserts, want 4", len(a.inserted))
	}
	if !reflect.DeepEqual(a.deleted, []uint64{2, 4}) {
		t.Fatalf("replayed deletes %v, want [2 4]", a.deleted)
	}
}

// TestGroupCommitTornWindow crashes a group-commit log inside an unflushed
// window: a full window of appends plus a partial one, with the file cut at
// every byte offset of the unflushed tail — spanning several records, not
// just the last — and asserts recovery keeps exactly the intact record
// prefix and truncates to a record boundary the next append extends cleanly.
func TestGroupCommitTornWindow(t *testing.T) {
	master := t.TempDir()
	l, _ := mustOpen(t, master, SyncGroup)
	// One full window (synced) plus a three-record unflushed tail.
	var recs []Record
	var offsets []int64 // start offset of each record
	for i := 0; i < DefaultGroupWindow+3; i++ {
		rec := Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(uint64(i + 1))}}
		recs = append(recs, rec)
		offsets = append(offsets, l.Size())
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.pending != 3 {
		t.Fatalf("pending = %d after window+3 appends, want 3", l.pending)
	}
	full := l.Size()
	l.Close()
	data, err := os.ReadFile(filepath.Join(master, FileName))
	if err != nil {
		t.Fatal(err)
	}

	// boundary returns the last record boundary at or before cut, and the
	// number of records wholly before it.
	boundary := func(cut int64) (int64, int) {
		for i := len(offsets) - 1; i >= 0; i-- {
			if offsets[i] <= cut {
				end := full
				if i+1 < len(offsets) {
					end = offsets[i+1]
				}
				if cut >= end {
					return end, i + 1
				}
				return offsets[i], i
			}
		}
		return 0, 0
	}

	for cut := offsets[DefaultGroupWindow]; cut < full; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantOff, wantN := boundary(cut)
		l2, got := mustOpen(t, dir, SyncGroup)
		if !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		st, err := os.Stat(filepath.Join(dir, FileName))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != wantOff {
			t.Fatalf("cut at byte %d: truncated to %d, want boundary %d", cut, st.Size(), wantOff)
		}
		extra := Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(999)}}
		if err := l2.Append(extra); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if err := l2.Flush(); err != nil {
			t.Fatalf("cut at byte %d: flush: %v", cut, err)
		}
		l2.Close()
		_, again := mustOpen(t, dir, SyncGroup)
		if !reflect.DeepEqual(again, append(recs[:wantN:wantN], extra)) {
			t.Fatalf("cut at byte %d: re-append then replay mismatch", cut)
		}
	}
}

// TestFlush pins the window bookkeeping: group appends below the window
// leave records pending, Flush closes the window, a window-crossing append
// syncs on its own, and Flush under always is a no-op that still succeeds.
func TestFlush(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, SyncGroup)
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(uint64(i + 1))}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.pending != 5 {
		t.Fatalf("pending = %d, want 5", l.pending)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if l.pending != 0 {
		t.Fatalf("pending = %d after Flush, want 0", l.pending)
	}
	for i := 0; i < DefaultGroupWindow; i++ {
		if err := l.Append(Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(uint64(100 + i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.pending != 0 {
		t.Fatalf("pending = %d after a full window, want 0 (window sync)", l.pending)
	}
	l.Close()

	la, _ := mustOpen(t, dir, SyncAlways)
	defer la.Close()
	if err := la.Flush(); err != nil {
		t.Fatalf("Flush under SyncAlways: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("never"); err != nil || p != SyncNever {
		t.Fatalf("never: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("group"); err != nil || p != SyncGroup {
		t.Fatalf("group: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestOpenHugeTornLength: a crash can leave a header whose length field is
// garbage and only a few bytes behind it. Open must recover the intact
// prefix and cut the file back to it without allocating what the header
// claims — here 2^30−1 bytes, which a body allocated before the read used to
// cost in full.
func TestOpenHugeTornLength(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, SyncNever)
	rec := Record{Op: OpInsert, Entries: []mindex.Entry{testEntry(1)}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := []byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 1, 2, 3, 4} // length 2^30−1, a CRC, 4 body bytes
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, recs := mustOpen(t, dir, SyncNever)
	runtime.ReadMemStats(&after)
	defer l.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Open allocated %d bytes for a %d-byte torn tail", got, len(tail))
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("recovered %d records, want the one intact record", len(recs))
	}
	if fi, err := os.Stat(filepath.Join(dir, FileName)); err != nil || fi.Size() != good {
		t.Fatalf("log not cut back to its intact prefix of %d bytes (stat %v, %v)", good, fi, err)
	}
}

// FuzzDecodeRecord is the fuzz target of the log's record decoder, which
// replay runs over whatever a crash left on disk: it must never panic, and a
// payload it accepts must be exactly the encoding of what it returned — the
// decoder neither drops nor invents bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range testRecords() {
		p := encodeRecord(rec)
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	f.Add([]byte{byte(OpInsert), 0, 0, 0, 0})
	f.Add([]byte{byte(OpDelete), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeRecord(p)
		if err != nil {
			return
		}
		if again := encodeRecord(rec); !bytes.Equal(again, p) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(p), len(again))
		}
	})
}

// Package wal implements the per-server write-ahead log that makes a
// killed-and-restarted simserver node recover to its pre-crash state: every
// acknowledged mutation of the encrypted entry store (insert or delete) is
// appended as one CRC-framed record before the acknowledgment leaves the
// server, and a restarting node replays the log into a fresh engine.
//
// Record framing (little endian, matching the entry codec):
//
//	length uint32 | crc32 uint32 | payload
//	payload = op uint8 | count uint32 | entry × count (mindex entry codec)
//
// The CRC (IEEE) covers the payload. A torn tail — a record whose header,
// body or checksum is incomplete or corrupt, as a crash mid-append leaves
// behind — is detected on open: replay stops at the last intact record and
// the file is truncated back to it, so the recovered state is exactly the
// fully-written prefix of the log.
//
// Commit discipline: the server applies a mutation to the engine first and
// appends the record second, acknowledging only after both succeed. A crash
// between apply and append loses at most that unacknowledged suffix — the
// cluster coordinator re-delivers it during re-admission (idempotently), so
// acknowledged writes are never lost and replay never re-applies a record
// the engine rejected.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"simcloud/internal/mindex"
)

// SyncPolicy selects the durability of each append.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append: a record is on stable storage
	// before the mutation is acknowledged, surviving OS crashes and power
	// loss.
	SyncAlways SyncPolicy = iota
	// SyncNever writes through the OS page cache without fsync: records
	// survive a process kill (the kernel holds the written bytes) but a
	// machine crash may lose the unflushed tail.
	SyncNever
	// SyncGroup groups fsyncs across appends (group commit): an append
	// fsyncs only when DefaultGroupWindow appends have accumulated since
	// the last sync; Flush syncs the remainder on demand. The streaming
	// ingest path flushes before acknowledging end-of-stream, so a bulk
	// load pays one fsync per window instead of one per chunk while the
	// completion ack still promises stable storage. Between flushes a
	// machine crash may lose up to a window of chunk-acknowledged appends,
	// as it may lose the SyncNever tail. Nothing re-delivers them: the
	// cluster coordinator journals only writes it failed to deliver. At
	// R=1 they are lost; at R ≥ 2 a co-owner keeps them, and the replicas
	// differ until they are re-synced.
	SyncGroup
)

// DefaultGroupWindow is the number of appends SyncGroup accumulates
// between fsyncs.
const DefaultGroupWindow = 32

// String returns the policy's -wal-sync flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	case SyncGroup:
		return "group"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy maps the -wal-sync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	case "group":
		return SyncGroup, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, group or never)", s)
}

// Op identifies a logged mutation.
type Op uint8

// Logged mutation kinds.
const (
	OpInsert Op = 1
	OpDelete Op = 2
)

// Record is one logged mutation: the operation plus the entries it applied
// (full entries for an insert, delete references — ID plus permutation
// prefix — for a delete, exactly the wire request contents).
type Record struct {
	Op      Op
	Entries []mindex.Entry
}

// FileName is the log file inside the WAL directory.
const FileName = "wal.log"

// maxRecordSize bounds a record body against corrupted length prefixes; a
// longer "record" is treated as a torn tail.
const maxRecordSize = 1 << 30

// Log is an append-only mutation log. Appends are serialized internally;
// a Log is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	policy SyncPolicy
	size   int64
	// pending counts appends since the last fsync under SyncGroup.
	pending int
}

// Open opens (creating if needed) the log in dir, replays the existing
// records, truncates any torn tail, and returns the log positioned for
// appending plus the recovered records in append order.
func Open(dir string, policy SyncPolicy) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, good, err := scan(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail (if any) so the next append starts at a record
	// boundary; replay already excluded it.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return &Log{f: f, path: path, policy: policy, size: good}, recs, nil
}

// scan reads every intact record from the start of f, a file of size bytes,
// returning the records and the offset just past the last intact one. A
// record body is allocated only once the file is known to hold it: a torn
// header claiming up to maxRecordSize bytes costs nothing.
func scan(f *os.File, size int64) ([]Record, int64, error) {
	var recs []Record
	var good int64
	r := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, r); err != nil {
			// EOF exactly at a boundary is a clean end; a short header is a
			// torn tail. Either way the intact prefix ends at good.
			return recs, good, nil
		}
		length := binary.LittleEndian.Uint32(r[:4])
		sum := binary.LittleEndian.Uint32(r[4:])
		if length == 0 || length > maxRecordSize || int64(length) > size-good-8 {
			return recs, good, nil // corrupt length or short body: torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, good, nil // short body: torn tail
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, nil // corrupt body: torn tail
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, good, nil // undecodable body: torn tail
		}
		recs = append(recs, rec)
		good += 8 + int64(length)
	}
}

var errBadRecord = errors.New("wal: malformed record payload")

func encodeRecord(rec Record) []byte {
	size := 5
	for _, e := range rec.Entries {
		size += mindex.EncodedEntrySize(e)
	}
	out := make([]byte, 0, size)
	out = append(out, byte(rec.Op))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Entries)))
	for _, e := range rec.Entries {
		out = mindex.AppendEntry(out, e)
	}
	return out
}

func decodeRecord(p []byte) (Record, error) {
	if len(p) < 5 {
		return Record{}, errBadRecord
	}
	rec := Record{Op: Op(p[0])}
	if rec.Op != OpInsert && rec.Op != OpDelete {
		return Record{}, errBadRecord
	}
	n := int(binary.LittleEndian.Uint32(p[1:5]))
	p = p[5:]
	// A serialized entry is at least 20 bytes (see the mindex codec).
	if n < 0 || n > len(p)/20+1 {
		return Record{}, errBadRecord
	}
	rec.Entries = make([]mindex.Entry, 0, n)
	for range n {
		e, rest, err := mindex.DecodeEntry(p)
		if err != nil {
			return Record{}, err
		}
		rec.Entries = append(rec.Entries, e)
		p = rest
	}
	if len(p) != 0 {
		return Record{}, errBadRecord
	}
	return rec, nil
}

// Append writes one record (and fsyncs it under SyncAlways). The record is
// durable — to the policy's standard — when Append returns.
func (l *Log) Append(rec Record) error {
	payload := encodeRecord(rec)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	switch l.policy {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	case SyncGroup:
		l.pending++
		if l.pending >= DefaultGroupWindow {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.pending = 0
		}
	}
	l.size += int64(8 + len(payload))
	return nil
}

// Flush forces appended records onto stable storage regardless of policy:
// after Flush returns, every prior Append is as durable as SyncAlways would
// have made it. Under SyncAlways it is a no-op (each append already
// synced); under SyncGroup it closes the current window. The streaming
// ingest path calls it before acknowledging end-of-stream.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if l.policy == SyncAlways {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.pending = 0
	return nil
}

// Size returns the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Reset truncates the log to empty. Call it only after a snapshot covering
// every logged mutation has been durably saved (the snapshot-plus-truncate
// compaction step): after Reset, recovery is snapshot restore plus replay of
// whatever is appended afterwards.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = 0
	l.pending = 0
	return nil
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Applier is the mutation surface replay drives; engine.ShardedIndex
// satisfies it.
type Applier interface {
	InsertBulk(entries []mindex.Entry) error
	Delete(refs []mindex.Entry) (int, error)
}

// Replay applies recovered records in log order. Because records are
// appended only after the engine accepted the mutation, replaying into a
// fresh engine reproduces the logged state exactly: inserts re-apply
// cleanly and deletes of already-absent IDs are skipped by the engine.
func Replay(recs []Record, a Applier) error {
	for i, rec := range recs {
		switch rec.Op {
		case OpInsert:
			if err := a.InsertBulk(rec.Entries); err != nil {
				return fmt.Errorf("wal: replaying record %d: %w", i, err)
			}
		case OpDelete:
			if _, err := a.Delete(rec.Entries); err != nil {
				return fmt.Errorf("wal: replaying record %d: %w", i, err)
			}
		default:
			return fmt.Errorf("wal: replaying record %d: unknown op %d", i, rec.Op)
		}
	}
	return nil
}

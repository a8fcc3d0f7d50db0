package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// MsgType identifies a protocol message.
type MsgType uint8

// ProtocolVersion is the wire protocol generation this build speaks. Peers
// exchange it in the hello handshake (HelloResp.Version) and refuse each
// other on mismatch. Version 2 retired the per-kind single-query, ranked-
// batch and filtered-envelope requests in favor of one read request,
// MsgBatchQuery. Version 3 added the bound-ordered query (kind 5, whose
// flat reply carried a bound after its candidates) and the range query's
// keyset cursor (BatchQuery.After). Version 4 left one request per concept:
// download-all became a batch query kind (BatchAll), the EHI, FDH and
// raw-data stores one keyed blob store (MsgPutBlobs, MsgGetBlobs), and the
// four plain queries one message (MsgPlainQuery). Version 5 left one insert
// request: every write ships as chunk frames (MsgIngestChunk,
// MsgIngestObjChunk), whose ack carries the server's distance time.
// Version 6 added the count form of a ranked read (BatchQueryReq.Counts,
// answered by MsgBatchCellCounts) and dropped AckResp's distance time.
// Version 7 answers a BatchRange one page at a time (PageBytes): its flat
// result ends in a page trailer (Page), and a ranked one comes in bound-key
// order with each candidate's bound as its promise.
// Version 8 left one bound-ordered read: a BatchRange carries a candidate
// size and takes radius +Inf, so a precise k-NN's first page is a range
// page, and kind 5 is gone (it decodes as an unknown kind).
const ProtocolVersion = 8

// Protocol messages. Requests flow client→server, responses server→client.
// The numbers are the wire encoding and never change; a retired message's
// number stays reserved so it can be refused by name (see RetiredError).
const (
	// MsgError carries a server-side error string.
	MsgError MsgType = 1

	// 2–11 reserved: the v4 one-frame inserts of entries and raw objects,
	// the v1 single-query requests (range by distances,
	// approximate by permutation / by distances, first cell), the v3 plain
	// range, k-NN and approximate queries, and the v3 candidate reply.

	// MsgResults returns refined results (plain deployment) plus server time.
	MsgResults MsgType = 12
	// MsgAck acknowledges an end of ingest, a blob put or a re-sync,
	// carrying server time.
	MsgAck MsgType = 13

	// 14–22 reserved: the v3 EHI node, FDH bucket and raw-data stores and
	// download-all.

	// MsgBatchQuery is the one encrypted read request: a BatchQueryReq
	// carrying one or more queries (range, approximate, first-cell, all) in
	// one frame, optionally restricted to a first-level allow-list
	// and optionally asking for ranked replies. Answered with
	// MsgBatchCandidates, or MsgBatchRankedCandidates when ranked.
	MsgBatchQuery MsgType = 23
	// MsgBatchCandidates returns one candidate set per batched query.
	MsgBatchCandidates MsgType = 24

	// MsgDeleteEntries tombstones indexed entries. Each reference carries
	// an entry ID plus its permutation prefix (the same pivot-space routing
	// metadata an insert reveals); a delete is a flight of them, like an
	// insert's chunks.
	MsgDeleteEntries MsgType = 25
	// MsgDeleteAck acknowledges a delete, carrying the count of entries
	// actually tombstoned plus server time.
	MsgDeleteAck MsgType = 26

	// MsgHello asks a server to identify itself: protocol version,
	// deployment mode and the index shape (pivot count, depth, ranking
	// strategy). The cluster coordinator hellos every node at startup to
	// verify the nodes are key-compatible before it federates them; it
	// doubles as a health check (the reply carries the live entry count).
	MsgHello MsgType = 27
	// MsgHelloAck answers MsgHello with a HelloResp.
	MsgHelloAck MsgType = 28

	// 29 reserved: the v1 ranked batch request (now BatchQueryReq.Ranked).

	// MsgBatchRankedCandidates answers a ranked MsgBatchQuery: every
	// candidate returns with its source cell's promise value and
	// permutation prefix, so an aggregation layer (the cluster coordinator)
	// can merge per-node streams by the same (promise, prefix, source)
	// order the in-server shard merge uses.
	MsgBatchRankedCandidates MsgType = 30

	// MsgDeleteObjects tombstones plain-deployment objects by ID (the plain
	// server owns the pivots, so no routing metadata is needed); answered
	// with MsgDeleteAck, batchable like MsgDeleteEntries.
	MsgDeleteObjects MsgType = 31

	// 32 reserved: the v3 plain first-cell query. 33 reserved: the v1
	// pivot-filter envelope (now BatchQueryReq.Allow).

	// MsgResyncOps re-delivers the ordered write operations a node missed
	// while it was down (coordinator re-admission). The node applies them
	// idempotently — inserts of IDs it already holds are skipped — and
	// answers MsgAck when its state has caught up.
	MsgResyncOps MsgType = 34

	// MsgIngestChunk is the one insert request of the encrypted
	// deployment: one sequence-numbered chunk of pre-computed entries (the
	// client computed permutations and distances and encrypted the
	// payloads; the server sees no plaintext). An insert is a pipelined
	// flight of them; a streamed ingest keeps a window of unacknowledged
	// chunks in flight, preparing the next chunk while earlier ones cross
	// the wire and build server-side. Each chunk is answered by
	// MsgIngestChunkAck.
	MsgIngestChunk MsgType = 35
	// MsgIngestObjChunk is MsgIngestChunk for raw objects (plain
	// deployment): the server computes pivot distances itself.
	MsgIngestObjChunk MsgType = 36
	// MsgIngestChunkAck acknowledges one chunk, echoing its sequence number
	// and carrying the server's time (and, for raw objects, its distance
	// time). Under WAL policy "always" the ack additionally promises the
	// chunk's log record is on stable storage; under "group" durability is
	// deferred to the end-of-stream flush.
	MsgIngestChunkAck MsgType = 37
	// MsgIngestEnd closes a streamed ingest: the server flushes its WAL
	// (a no-op without one) and answers MsgAck, so the final ack promises
	// every streamed chunk is applied and durable.
	MsgIngestEnd MsgType = 38

	// MsgPlainQuery evaluates one query fully server-side (plain
	// deployment): a PlainQueryReq carrying the raw query vector, answered
	// with MsgResults.
	MsgPlainQuery MsgType = 39

	// MsgPutBlobs stores ciphertext blobs under keys of a blob space (a
	// PutBlobsReq; answered with MsgAck): the raw-data store of the paper's
	// Figure 1, and the EHI nodes and FDH buckets of the compared
	// techniques.
	MsgPutBlobs MsgType = 40
	// MsgGetBlobs fetches the blob lists of keys of a blob space (a
	// GetBlobsReq), answered with MsgBlobs.
	MsgGetBlobs MsgType = 41
	// MsgBlobs returns one blob list per requested key plus server time.
	MsgBlobs MsgType = 42

	// MsgBatchCellCounts answers a MsgBatchQuery that asks for counts
	// (BatchQueryReq.Counts) with a BatchCellCountsResp: per query, the
	// (promise, prefix, count) runs of the ranked candidate stream the
	// request would otherwise return, and no candidate.
	MsgBatchCellCounts MsgType = 43
)

var msgNames = map[MsgType]string{
	MsgError: "error", MsgResults: "results", MsgAck: "ack", MsgBatchQuery: "batch-query", MsgBatchCandidates: "batch-candidates",
	MsgDeleteEntries: "delete-entries", MsgDeleteAck: "delete-ack", MsgHello: "hello", MsgHelloAck: "hello-ack",
	MsgBatchRankedCandidates: "batch-ranked-candidates", MsgDeleteObjects: "delete-objects",
	MsgResyncOps: "resync-ops", MsgIngestChunk: "ingest-chunk", MsgIngestObjChunk: "ingest-obj-chunk",
	MsgIngestChunkAck: "ingest-chunk-ack", MsgIngestEnd: "ingest-end",
	MsgPlainQuery: "plain-query", MsgPutBlobs: "put-blobs", MsgGetBlobs: "get-blobs", MsgBlobs: "blobs",
	MsgBatchCellCounts: "batch-cell-counts",
}

// retiredMsg is a reserved message number: the name it had, the protocol
// version that retired it, and the message that replaces it.
type retiredMsg struct {
	name    string
	version int
	instead MsgType
}

// retired lists every reserved number.
var retired = map[MsgType]retiredMsg{
	2: {"insert-entries", 5, MsgIngestChunk}, 3: {"insert-objects", 5, MsgIngestObjChunk},
	4: {"range-dists", 2, MsgBatchQuery}, 5: {"approx-perm", 2, MsgBatchQuery},
	6: {"approx-dists", 2, MsgBatchQuery}, 7: {"first-cell", 2, MsgBatchQuery},
	29: {"batch-ranked", 2, MsgBatchQuery}, 33: {"filtered-query", 2, MsgBatchQuery},
	8: {"range-plain", 4, MsgPlainQuery}, 9: {"knn-plain", 4, MsgPlainQuery},
	10: {"approx-plain", 4, MsgPlainQuery}, 32: {"first-cell-plain", 4, MsgPlainQuery},
	11: {"candidates", 4, MsgBatchQuery}, 19: {"download-all", 4, MsgBatchQuery},
	16: {"put-nodes", 4, MsgPutBlobs}, 18: {"put-fdh", 4, MsgPutBlobs}, 20: {"put-raw", 4, MsgPutBlobs},
	14: {"get-node", 4, MsgGetBlobs}, 15: {"node-blob", 4, MsgGetBlobs}, 17: {"fdh-query", 4, MsgGetBlobs},
	21: {"get-raw", 4, MsgGetBlobs}, 22: {"raw-items", 4, MsgGetBlobs},
}

// RetiredError returns the refusal for a reserved message number, naming
// the protocol version that retired it and its replacement, or nil for any
// other type. Servers answer it instead of a bare "unsupported" so an older
// peer learns what to send.
func RetiredError(t MsgType) error {
	r, ok := retired[t]
	if !ok {
		return nil
	}
	return fmt.Errorf("wire: request %s (type %d) was retired in protocol v%d; send %v instead",
		r.name, uint8(t), r.version, r.instead)
}

// String implements fmt.Stringer.
func (m MsgType) String() string {
	if s, ok := msgNames[m]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MaxFrameSize bounds a single frame (1 GiB) against hostile or corrupted
// length prefixes.
const MaxFrameSize = 1 << 30

// frameHeader is the fixed frame prefix: length uint32 + type byte.
const frameHeader = 5

// smallFrame is the largest payload WriteFrame sends together with its
// header in a single Write. Requests, acks and errors are a few hundred
// bytes: one write is one syscall and, under TCP_NODELAY, one segment
// instead of a 5-byte header segment followed by the payload. Above it the
// copy would cost more than the second write saves.
const smallFrame = 4 << 10

// smallFrames recycles the header+payload staging arrays of small frames.
var smallFrames = sync.Pool{New: func() any { return new([frameHeader + smallFrame]byte) }}

// WriteFrame writes one frame: length uint32 (big endian, covering type +
// payload), type byte, payload. A small payload goes out with its header in
// one Write; a large one as header, then payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload)+1)
	}
	if len(payload) <= smallFrame {
		f := smallFrames.Get().(*[frameHeader + smallFrame]byte)
		defer smallFrames.Put(f)
		binary.BigEndian.PutUint32(f[:4], uint32(len(payload)+1))
		f[4] = byte(t)
		n := frameHeader + copy(f[frameHeader:], payload)
		_, err := w.Write(f[:n])
		return err
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameStep is the most ReadFrameInto extends its buffer by ahead of the
// bytes that have actually arrived, unless doubling what has arrived is
// more.
const frameStep = 1 << 20

// ReadFrameInto reads one frame written by WriteFrame into buf, reusing
// buf's capacity, and returns the payload as a slice of buf.B — valid until
// the buffer is reset, reused or returned to the pool. The length prefix is
// untrusted: the buffer grows only as payload bytes arrive (by frameStep,
// or by doubling once more than that has been received), so a peer that
// claims a MaxFrameSize frame and then stalls or hangs up costs the
// receiver what it sent plus one step, never a gigabyte up front.
func ReadFrameInto(r io.Reader, buf *Buffer) (MsgType, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: implausible frame size %d", size)
	}
	n := int(size - 1)
	buf.B = buf.B[:0]
	for have := 0; have < n; {
		end := min(n, max(cap(buf.B), have+frameStep, 2*have))
		buf.B = slices.Grow(buf.B, end-have)[:end]
		if _, err := io.ReadFull(r, buf.B[have:]); err != nil {
			return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
		}
		have = end
	}
	return MsgType(hdr[4]), buf.B, nil
}

// ReadFrame reads one frame written by WriteFrame into a payload slice of
// its own, which the caller may keep.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var buf Buffer
	return ReadFrameInto(r, &buf)
}

// CountingConn wraps a net.Conn and counts bytes in both directions — the
// "communication cost" measure of the paper's evaluation. Its zero counters
// are ready: wrap with &CountingConn{Conn: conn}.
type CountingConn struct {
	net.Conn
	read    atomic.Int64
	written atomic.Int64
}

// Read implements net.Conn.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// BytesRead returns the bytes received so far.
func (c *CountingConn) BytesRead() int64 { return c.read.Load() }

// BytesWritten returns the bytes sent so far.
func (c *CountingConn) BytesWritten() int64 { return c.written.Load() }

// ResetCounters zeroes both byte counters (per-operation accounting).
func (c *CountingConn) ResetCounters() {
	c.read.Store(0)
	c.written.Store(0)
}

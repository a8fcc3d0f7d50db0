package wire

import (
	"fmt"

	"simcloud/internal/mindex"
)

// This file defines the messages the cluster coordinator exchanges with
// simserver nodes: the hello handshake that verifies protocol version and
// key-compatibility before a node joins a federation, and the ranked batch
// reply whose per-candidate promise annotations let per-node streams be
// merged by the shared (promise, prefix, source) order (internal/merge).
// Both are ordinary protocol citizens — any client may ask for them.

// HelloReq asks a server to identify itself. It carries no fields; the
// message type alone is the request.
type HelloReq struct{}

// Encode serializes the request payload.
func (m HelloReq) Encode() []byte { return nil }

// DecodeHelloReq parses a HelloReq payload (any payload is accepted — the
// request has no fields, and tolerating trailing bytes keeps the handshake
// forward-extensible).
func DecodeHelloReq(p []byte) (HelloReq, error) { return HelloReq{}, nil }

// Deployment modes as reported by HelloResp.Mode (mirrors server.Mode
// without importing it — wire sits below server in the layering).
const (
	HelloModeEncrypted uint8 = 1
	HelloModePlain     uint8 = 2
)

// HelloResp identifies a server: its deployment mode and the index shape a
// client (or coordinator) must match to talk to it meaningfully. A
// coordinator rejects nodes whose NumPivots, MaxLevel or Ranking disagree —
// entries indexed under one pivot set are garbage under another, and the
// mismatch is otherwise invisible until recall silently collapses.
type HelloResp struct {
	// Version is the protocol generation the server speaks
	// (ProtocolVersion). It travels last on the wire; a reply that ends
	// before it is a version-1 server's.
	Version uint32
	// Mode is the deployment mode (HelloModeEncrypted / HelloModePlain).
	Mode uint8
	// NumPivots, MaxLevel, BucketCapacity and Ranking echo the server's
	// mindex.Config. NumPivots must equal the client key's pivot count.
	NumPivots      uint32
	MaxLevel       uint32
	BucketCapacity uint32
	Ranking        uint8
	// EagerRootSplit reports whether every leaf cell of the server's index
	// lies at permutation-prefix length >= 1 (true for multi-shard engines
	// and for single-shard indexes started with the eager-root-split
	// option). A coordinator federating more than one node requires it:
	// without it a node whose root bucket has not split yet would advertise
	// all its entries at promise 0 and crowd out the other nodes' cells in
	// the cross-node merge (see DESIGN.md §Distribution).
	EagerRootSplit bool
	// Shards is the node's in-process partition count (informational).
	Shards uint32
	// Entries is the live entry count — the health-check payload.
	Entries uint64
}

// Encode serializes the response payload.
func (m HelloResp) Encode() []byte {
	var b Buffer
	b.U8(m.Mode)
	b.U32(m.NumPivots)
	b.U32(m.MaxLevel)
	b.U32(m.BucketCapacity)
	b.U8(m.Ranking)
	if m.EagerRootSplit {
		b.U8(1)
	} else {
		b.U8(0)
	}
	b.U32(m.Shards)
	b.U64(m.Entries)
	b.U32(m.Version)
	return b.B
}

// DecodeHelloResp parses a HelloResp payload.
func DecodeHelloResp(p []byte) (HelloResp, error) {
	r := NewReader(p)
	m := HelloResp{
		Mode:           r.U8(),
		NumPivots:      r.U32(),
		MaxLevel:       r.U32(),
		BucketCapacity: r.U32(),
		Ranking:        r.U8(),
		EagerRootSplit: r.U8() != 0,
		Shards:         r.U32(),
		Entries:        r.U64(),
		Version:        1,
	}
	if len(r.b) > 0 {
		m.Version = r.U32()
	}
	return m, r.Err()
}

// CheckVersion refuses a peer speaking another protocol generation: message
// payloads changed shape between versions, so talking on would mis-decode
// rather than fail.
func (m HelloResp) CheckVersion() error {
	if m.Version != ProtocolVersion {
		return fmt.Errorf("wire: peer speaks protocol v%d, this build speaks v%d", m.Version, ProtocolVersion)
	}
	return nil
}

// appendCandidate writes a query candidate's entry record: the ID and the
// payload, with perm, dists and vec left empty. The index metadata has done
// its work by the time an entry is a candidate — the server filtered and
// ranked with it, the refining client reads the ciphertext alone — so it
// stays on the server. The layout is mindex.AppendEntry's, which is what
// lets every parser of whole records (ScanEntry, CandidateRefs, the
// coordinator's span relay, an older client) read it unchanged.
func appendCandidate(b *Buffer, v *mindex.EntryView) {
	b.B = mindex.AppendEntry(b.B, mindex.Entry{ID: v.ID, Payload: v.Payload()})
}

// appendRanked writes a count-prefixed ranked-candidate list: per
// candidate, the source cell's promise and prefix followed by the
// candidate record.
func appendRanked(b *Buffer, rcs []mindex.RankedCandidate) {
	b.U32(uint32(len(rcs)))
	for i := range rcs {
		b.F64(rcs[i].Promise)
		b.I32Slice(rcs[i].Prefix)
		appendCandidate(b, &rcs[i].Entry)
	}
}

func readRanked(r *Reader) []mindex.RankedCandidate {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	// Each ranked candidate occupies at least 32 bytes: 8 (promise) +
	// 4 (prefix length) + 20 (minimal entry record).
	if n < 0 || n > len(r.b)/32+1 {
		r.err = ErrCodec
		return nil
	}
	out := make([]mindex.RankedCandidate, 0, n)
	for range n {
		promise := r.F64()
		prefix := r.I32Slice()
		if r.err != nil {
			return nil
		}
		v, rest, err := mindex.ScanEntry(r.b)
		if err != nil {
			r.err = err
			return nil
		}
		r.b = rest
		out = append(out, mindex.RankedCandidate{Entry: v.Clone(), Promise: promise, Prefix: prefix})
	}
	return out
}

// BatchRankedResp is the answer to a BatchQueryReq as the server holds it:
// one ranked candidate set per query, parallel to the request's query list.
// Range queries (exact, no cell ranking) return their candidates with
// promise 0 and a nil prefix; first-cell queries return the winning cell's
// entries, every one annotated with that cell's promise and prefix. AppendTo
// keeps the annotations (MsgBatchRankedCandidates, for a Ranked request);
// AppendFlatTo drops them (MsgBatchCandidates).
type BatchRankedResp struct {
	ServerNanos uint64
	Results     [][]mindex.RankedCandidate
}

// AppendTo appends the encoded response to b (see CandidatesResp.AppendTo).
func (m BatchRankedResp) AppendTo(b *Buffer) {
	b.U64(m.ServerNanos)
	b.U32(uint32(len(m.Results)))
	for _, rcs := range m.Results {
		appendRanked(b, rcs)
	}
}

// AppendFlatTo appends the response to queries in BatchQueryResp form: the
// same candidates with the annotations dropped, and after a BatchBound
// result the bound of its last candidate (0 when it has none) — the one
// annotation the client needs, to resume the bound order after it.
func (m BatchRankedResp) AppendFlatTo(b *Buffer, queries []BatchQuery) {
	b.U64(m.ServerNanos)
	b.U32(uint32(len(m.Results)))
	for qi, rcs := range m.Results {
		b.U32(uint32(len(rcs)))
		for i := range rcs {
			appendCandidate(b, &rcs[i].Entry)
		}
		if boundTrailer(queries, qi) {
			var lb float64
			if len(rcs) > 0 {
				lb = rcs[len(rcs)-1].Promise
			}
			b.F64(lb)
		}
	}
}

// Encode serializes the response payload.
func (m BatchRankedResp) Encode() []byte {
	var b Buffer
	m.AppendTo(&b)
	return b.B
}

// DecodeBatchRankedResp parses a BatchRankedResp payload into candidates that
// own their memory. The coordinator decodes the same payload by reference
// (CandidateRefs.DecodeRanked); this form is the definition that one is
// fuzzed against.
func DecodeBatchRankedResp(p []byte) (BatchRankedResp, error) {
	r := NewReader(p)
	m := BatchRankedResp{ServerNanos: r.U64()}
	n := int(r.U32())
	// Each result occupies at least its 4-byte candidate count.
	if n < 0 || n > len(p)/4+1 {
		return m, ErrCodec
	}
	m.Results = make([][]mindex.RankedCandidate, 0, n)
	for range n {
		rcs := readRanked(r)
		if r.err != nil {
			break
		}
		m.Results = append(m.Results, rcs)
	}
	return m, r.Err()
}

package wire

import (
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// Insert payloads. Every insert is a sequence of numbered chunk frames,
// pipelined over a single connection: the server applies chunks in arrival
// order and answers each with an ack echoing its sequence number. A
// streamed ingest bounds the number of unacknowledged chunks in flight (the
// ack window) while it prepares the next chunk, and closes with one
// MsgIngestEnd. Sequence numbers exist for the client's window bookkeeping
// — the transport already guarantees ordering — and to make a server that
// answered out of order detectable.

// IngestChunkReq is one chunk of pre-computed entries (encrypted
// deployment).
type IngestChunkReq struct {
	Seq     uint32
	Entries []mindex.Entry
}

// Encode serializes the request payload.
func (m IngestChunkReq) Encode() []byte {
	var b Buffer
	b.U32(m.Seq)
	appendEntries(&b, m.Entries)
	return b.B
}

// DecodeIngestChunkReq parses an IngestChunkReq payload.
func DecodeIngestChunkReq(p []byte) (IngestChunkReq, error) {
	r := NewReader(p)
	m := IngestChunkReq{Seq: r.U32(), Entries: readEntries(r)}
	return m, r.Err()
}

// IngestObjChunkReq is one chunk of raw objects (plain deployment).
type IngestObjChunkReq struct {
	Seq     uint32
	Objects []metric.Object
}

// Encode serializes the request payload.
func (m IngestObjChunkReq) Encode() []byte {
	var b Buffer
	b.U32(m.Seq)
	b.U32(uint32(len(m.Objects)))
	for _, o := range m.Objects {
		b.U64(o.ID)
		b.Vec(o.Vec)
	}
	return b.B
}

// DecodeIngestObjChunkReq parses an IngestObjChunkReq payload.
func DecodeIngestObjChunkReq(p []byte) (IngestObjChunkReq, error) {
	r := NewReader(p)
	m := IngestObjChunkReq{Seq: r.U32()}
	n := int(r.U32())
	// Each object occupies at least 12 bytes on the wire.
	if n < 0 || n > len(p)/12+1 {
		return IngestObjChunkReq{}, ErrCodec
	}
	m.Objects = make([]metric.Object, 0, n)
	for range n {
		id := r.U64()
		vec := r.VecField()
		if r.err != nil {
			break
		}
		m.Objects = append(m.Objects, metric.Object{ID: id, Vec: vec})
	}
	return m, r.Err()
}

// IngestChunkAckResp acknowledges one chunk. DistNanos is the server's
// pivot-distance time: non-zero only for raw objects (plain deployment),
// whose distances the server computes.
type IngestChunkAckResp struct {
	Seq         uint32
	ServerNanos uint64
	DistNanos   uint64
}

// Encode serializes the response payload.
func (m IngestChunkAckResp) Encode() []byte {
	var b Buffer
	b.U32(m.Seq)
	b.U64(m.ServerNanos)
	b.U64(m.DistNanos)
	return b.B
}

// DecodeIngestChunkAckResp parses an IngestChunkAckResp payload.
func DecodeIngestChunkAckResp(p []byte) (IngestChunkAckResp, error) {
	r := NewReader(p)
	m := IngestChunkAckResp{Seq: r.U32(), ServerNanos: r.U64(), DistNanos: r.U64()}
	return m, r.Err()
}

// IngestEndReq closes a streamed ingest: flush the WAL and acknowledge.
// It carries no payload — deliberately, so it is stream-agnostic: a
// coordinator multiplexes many client streams over one node connection,
// and the end frame it forwards must mean "make everything appended so far
// durable", not "my stream had N chunks". Answered with MsgAck after the
// server's WAL flush.
type IngestEndReq struct{}

// Encode serializes the request payload.
func (m IngestEndReq) Encode() []byte { return nil }

// DecodeIngestEndReq parses an IngestEndReq payload.
func DecodeIngestEndReq(p []byte) (IngestEndReq, error) {
	if len(p) != 0 {
		return IngestEndReq{}, ErrCodec
	}
	return IngestEndReq{}, nil
}

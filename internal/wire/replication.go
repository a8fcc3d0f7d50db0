package wire

import "simcloud/internal/mindex"

// This file defines the re-sync operation stream a replicated coordinator
// replays into a re-admitted node. See DESIGN.md §Replication for the
// ownership rule and recovery invariants it carries.

// Re-sync operation kinds (ResyncOp.Op).
const (
	// ResyncInsert re-delivers inserted entries.
	ResyncInsert uint8 = 1
	// ResyncDelete re-delivers delete references (ID + permutation prefix).
	ResyncDelete uint8 = 2
)

// ResyncOp is one write operation a down node missed, in the order the
// coordinator originally acknowledged it.
type ResyncOp struct {
	Op      uint8
	Entries []mindex.Entry
}

// ResyncReq carries the ordered journal of missed writes (MsgResyncOps).
// The receiving node applies the operations in order, skipping inserts of
// IDs it already holds — the crash may have lost the acknowledgment but not
// the write — and answers MsgAck once every operation is applied and logged.
type ResyncReq struct {
	Ops []ResyncOp
}

// Encode serializes the request payload.
func (m ResyncReq) Encode() []byte {
	var b Buffer
	b.U32(uint32(len(m.Ops)))
	for _, op := range m.Ops {
		b.U8(op.Op)
		b.U32(uint32(len(op.Entries)))
		for _, e := range op.Entries {
			b.B = mindex.AppendEntry(b.B, e)
		}
	}
	return b.B
}

// DecodeResyncReq parses a ResyncReq payload.
func DecodeResyncReq(p []byte) (ResyncReq, error) {
	r := NewReader(p)
	n := int(r.U32())
	if r.err != nil {
		return ResyncReq{}, r.Err()
	}
	// Each operation occupies at least 5 bytes: op byte + entry count.
	if n < 0 || n > len(r.b)/5+1 {
		return ResyncReq{}, ErrCodec
	}
	m := ResyncReq{Ops: make([]ResyncOp, 0, n)}
	for range n {
		op := ResyncOp{Op: r.U8()}
		cnt := int(r.U32())
		if r.err != nil {
			return ResyncReq{}, r.Err()
		}
		if op.Op != ResyncInsert && op.Op != ResyncDelete {
			return ResyncReq{}, ErrCodec
		}
		// A serialized entry is at least 20 bytes (mindex codec).
		if cnt < 0 || cnt > len(r.b)/20+1 {
			return ResyncReq{}, ErrCodec
		}
		op.Entries = make([]mindex.Entry, 0, cnt)
		for range cnt {
			e, rest, err := mindex.DecodeEntry(r.b)
			if err != nil {
				r.err = err
				return ResyncReq{}, r.Err()
			}
			r.b = rest
			op.Entries = append(op.Entries, e)
		}
		m.Ops = append(m.Ops, op)
	}
	return m, r.Err()
}

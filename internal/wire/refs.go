package wire

import (
	"bytes"
	"encoding/binary"

	"simcloud/internal/mindex"
)

// This file holds the by-reference decoders of the candidate replies — the
// forms the read path uses to carry a ciphertext from one hop to the next
// without copying it. They accept exactly the payloads the copying decoders
// (DecodeBatchRankedResp, DecodeBatchQueryResp, DecodeCandidatesResp)
// accept, and those stay the decoders of everything that is stored.

// CandidateRef is one candidate of a query reply decoded by reference. Its
// byte fields alias the frame payload the reply was decoded from: a ref
// must not outlive that frame (see the lifetime rule in doc.go).
type CandidateRef struct {
	ID      uint64
	Payload []byte // the ciphertext
	Record  []byte // the whole entry record, as mindex.AppendEntry wrote it
	// Promise and Prefix are the source cell's annotations on a ranked
	// reply, zero on a flat one. Candidates of one cell share one Prefix.
	Promise float64
	Prefix  []int32
}

// Rank reports the source cell's promise and prefix and the candidate's ID
// (merge.Keyed).
func (c *CandidateRef) Rank() (float64, []int32, uint64) { return c.Promise, c.Prefix, c.ID }

// Bytes is the size of the candidate's record, what a range page's budget
// counts (mindex.Sized).
func (c *CandidateRef) Bytes() int { return len(c.Record) }

// CandidateRefs is a candidate reply decoded by reference: one candidate
// list per query, parallel to the request's query list. Decoding reuses the
// value's storage, so a serving loop keeps one per source and allocates
// nothing per reply once it has seen a reply of the usual size.
type CandidateRefs struct {
	ServerNanos uint64
	Results     [][]CandidateRef
	// Pages is BatchQueryResp's of a flat reply; empty on a ranked one,
	// whose candidates carry their bounds as promises.
	Pages []Page

	refs     []CandidateRef
	ends     []int   // refs[ends[i-1]:ends[i]] is result i
	prefixes []int32 // decoded prefixes, one run per cell
}

// DecodeRanked parses a BatchRankedResp payload (MsgBatchRankedCandidates).
func (m *CandidateRefs) DecodeRanked(p []byte) error { return m.decode(p, true, nil) }

// DecodeFlat parses a BatchQueryResp payload (MsgBatchCandidates), the
// answer to queries.
func (m *CandidateRefs) DecodeFlat(p []byte, queries []BatchQuery) error {
	return m.decode(p, false, queries)
}

// Reset drops every reference into the payload last decoded, keeping the
// storage. A value is Reset before it is pooled: refs left behind would pin
// the frame they point into for as long as the value sits in the pool.
func (m *CandidateRefs) Reset() {
	clear(m.refs)
	m.Results, m.Pages, m.refs, m.ends, m.prefixes = m.Results[:0], m.Pages[:0], m.refs[:0], m.ends[:0], m.prefixes[:0]
}

func (m *CandidateRefs) decode(p []byte, ranked bool, queries []BatchQuery) error {
	m.Reset()
	r := Reader{b: p}
	m.ServerNanos = r.U64()
	n := int(r.U32())
	// Each result occupies at least its 4-byte candidate count.
	if n < 0 || n > len(p)/4+1 {
		return ErrCodec
	}
	// A candidate occupies at least a minimal entry record (20 bytes),
	// behind 12 bytes of promise and prefix length when ranked.
	minSize := 20
	if ranked {
		minSize = 32
	}
	var prefixBytes []byte // the wire form of the current prefix run
	var prefix []int32
	for qi := range n {
		count := int(r.U32())
		if r.err == nil && (count < 0 || count > len(r.b)/minSize+1) {
			r.err = ErrCodec
		}
		if r.err != nil {
			break
		}
		for range count {
			var c CandidateRef
			if ranked {
				c.Promise = r.F64()
				pb := r.take(4 * r.len32(4))
				if r.err != nil {
					break
				}
				if len(pb) == 0 {
					prefix = nil
				} else if !bytes.Equal(pb, prefixBytes) {
					at := len(m.prefixes)
					for i := 0; i < len(pb); i += 4 {
						m.prefixes = append(m.prefixes, int32(binary.LittleEndian.Uint32(pb[i:])))
					}
					prefix = m.prefixes[at:len(m.prefixes):len(m.prefixes)]
				}
				prefixBytes = pb
				c.Prefix = prefix
			}
			v, rest, err := mindex.ScanEntry(r.b)
			if err != nil {
				r.err = err
				break
			}
			r.b = rest
			c.ID, c.Payload, c.Record = v.ID, v.Payload(), v.Record
			m.refs = append(m.refs, c)
		}
		if !ranked {
			m.Pages = append(m.Pages, readTrailer(&r, queries, qi))
		}
		m.ends = append(m.ends, len(m.refs))
	}
	if err := r.Err(); err != nil {
		return err
	}
	at := 0
	for _, end := range m.ends {
		m.Results = append(m.Results, m.refs[at:end:end])
		at = end
	}
	return nil
}

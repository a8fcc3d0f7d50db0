package mindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"simcloud/internal/simd"
)

// Entry wire/disk encoding (little endian):
//
//	id       uint64
//	permLen  uint16 | perm int32 × permLen
//	distsLen uint16 | dists float64 × distsLen
//	payLen   uint32 | payload bytes
//	vecLen   uint32, always 0
//
// The trailing count is what is left of a plaintext vector the plain
// deployment used to store beside the payload; it keeps the record at codec
// v3 until a format bump drops it, and ScanEntry rejects any other value.
//
// The same encoding is a bucket's form in both stores (see Bucket), the
// write-ahead log's and the client–server protocol's, so the measured
// communication cost reflects exactly what the server persists.

// ErrCodec reports a malformed entry encoding.
var ErrCodec = errors.New("mindex: malformed entry encoding")

// EncodedEntrySize returns the exact encoded size of e in bytes.
func EncodedEntrySize(e Entry) int {
	return 8 + 2 + 4*len(e.Perm) + 2 + 8*len(e.Dists) + 4 + len(e.Payload) + 4
}

// AppendEntry appends the encoding of e to dst and returns the result.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.ID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Perm)))
	for _, p := range e.Perm {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Dists)))
	for _, d := range e.Dists {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
	dst = append(dst, e.Payload...)
	return binary.LittleEndian.AppendUint32(dst, 0) // the empty vector
}

// EncodeEntry returns the binary encoding of e.
func EncodeEntry(e Entry) []byte {
	return AppendEntry(make([]byte, 0, EncodedEntrySize(e)), e)
}

// EntryView is one encoded entry record located by ScanEntry: the record's
// span plus where its variable-length fields end, so each field is a slice
// expression away. Everything aliases the scanned buffer — a view is valid
// only as long as that buffer is. A bucket is read only through views, and
// the read path moves a ciphertext by its view without copying it; anything
// that keeps a whole entry decodes it (Decode).
type EntryView struct {
	ID     uint64
	Record []byte // the whole record, as AppendEntry wrote it

	permEnd, distsEnd, payloadEnd int // offsets into Record
}

// Perm is the permutation prefix: int32 × len/4, little endian.
func (v *EntryView) Perm() []byte { return v.Record[10:v.permEnd:v.permEnd] }

// Dists is the pivot-distance vector: float64 × len/8.
func (v *EntryView) Dists() []byte { return v.Record[v.permEnd+2 : v.distsEnd : v.distsEnd] }

// Payload is the ciphertext.
func (v *EntryView) Payload() []byte { return v.Record[v.distsEnd+4 : v.payloadEnd : v.payloadEnd] }

// CandidateBytes is the size of the entry's record as a query reply ships
// it: the ID and the payload, with perm, dists and vec empty (AppendEntry of
// an Entry holding only those two).
func (v *EntryView) CandidateBytes() int { return candidateOverhead + v.payloadEnd - v.distsEnd - 4 }

// candidateOverhead is the record bytes of a candidate besides its payload:
// the ID, the three empty counts and the payload length.
const candidateOverhead = 8 + 2 + 2 + 4 + 4

// permEndOf and distsEndOf locate the end of a record's permutation and of
// its distances from the counts in front of them: the record layout up to
// the distances, which ScanEntry checks against its buffer and recordDists
// reads off a record already checked.
func permEndOf(rec []byte) int { return 10 + 4*int(binary.LittleEndian.Uint16(rec[8:])) }

func distsEndOf(rec []byte, permEnd int) int {
	return permEnd + 2 + 8*int(binary.LittleEndian.Uint16(rec[permEnd:]))
}

// recordDists is EntryView.Dists of a record at the front of rec that
// ScanEntry accepted — what a pivot filter reads, without locating the
// record's other fields.
func recordDists(rec []byte) []byte {
	permEnd := permEndOf(rec)
	end := distsEndOf(rec, permEnd)
	return rec[permEnd+2 : end : end]
}

// ScanEntry locates one entry record at the front of buf without allocating
// or copying, returning its view and the remaining bytes. It is the parser
// of the record layout: DecodeEntry is built on it, and recordDists reads
// the same fields through the same helpers.
func ScanEntry(buf []byte) (EntryView, []byte, error) {
	if len(buf) < 10 {
		return EntryView{}, nil, ErrCodec
	}
	permEnd := permEndOf(buf)
	if len(buf) < permEnd+2 {
		return EntryView{}, nil, ErrCodec
	}
	distsEnd := distsEndOf(buf, permEnd)
	if len(buf) < distsEnd+4 {
		return EntryView{}, nil, ErrCodec
	}
	payloadEnd := distsEnd + 4 + int(binary.LittleEndian.Uint32(buf[distsEnd:]))
	end := payloadEnd + 4
	if len(buf) < end || binary.LittleEndian.Uint32(buf[payloadEnd:]) != 0 {
		return EntryView{}, nil, ErrCodec
	}
	return EntryView{
		ID:      binary.LittleEndian.Uint64(buf),
		Record:  buf[:end:end],
		permEnd: permEnd, distsEnd: distsEnd, payloadEnd: payloadEnd,
	}, buf[end:], nil
}

// permAt returns permutation element i; the caller knows the record has it.
func (v *EntryView) permAt(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.Record[10+4*i:]))
}

// Clone returns a view of a copy of the record, valid independently of the
// buffer v was scanned from.
func (v EntryView) Clone() EntryView {
	v.Record = bytes.Clone(v.Record)
	return v
}

// ViewOf encodes e and returns the view of its record.
func ViewOf(e Entry) EntryView {
	v, _, _ := ScanEntry(EncodeEntry(e))
	return v
}

// DecodeEntry decodes one entry from the front of buf, returning the entry
// and the remaining bytes — ScanEntry, then Decode. It is the decoder of
// ingest, log replay and re-sync, which turn a frame into entries to store.
func DecodeEntry(buf []byte) (Entry, []byte, error) {
	v, rest, err := ScanEntry(buf)
	if err != nil {
		return Entry{}, nil, err
	}
	return v.Decode(), rest, nil
}

// Decode returns the entry the record encodes. The entry owns its memory
// (every field is copied out of the record): whatever keeps a whole entry —
// an ingest path, a tool — must not pin, or be overwritten with, the buffer
// the record lies in. An empty field decodes to nil, so "Dists == nil" keeps
// meaning "stored without distances".
func (v *EntryView) Decode() Entry {
	e := Entry{ID: v.ID}
	if perm := v.Perm(); len(perm) > 0 {
		e.Perm = make([]int32, len(perm)/4)
		simd.DecodeI32LE(e.Perm, perm)
	}
	if dists := v.Dists(); len(dists) > 0 {
		e.Dists = make([]float64, len(dists)/8)
		simd.DecodeF64LE(e.Dists, dists)
	}
	if payload := v.Payload(); len(payload) > 0 {
		e.Payload = bytes.Clone(payload)
	}
	return e
}

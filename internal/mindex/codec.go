package mindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"simcloud/internal/metric"
	"simcloud/internal/simd"
)

// Entry wire/disk encoding (little endian):
//
//	id       uint64
//	permLen  uint16 | perm int32 × permLen
//	distsLen uint16 | dists float64 × distsLen
//	payLen   uint32 | payload bytes
//	vecLen   uint32 | vec float32 × vecLen
//
// The same encoding serves the disk bucket store and the client–server
// protocol, so the measured communication cost reflects exactly what the
// server persists.

// ErrCodec reports a malformed entry encoding.
var ErrCodec = errors.New("mindex: malformed entry encoding")

// EncodedEntrySize returns the exact encoded size of e in bytes.
func EncodedEntrySize(e Entry) int {
	return 8 + 2 + 4*len(e.Perm) + 2 + 8*len(e.Dists) + 4 + len(e.Payload) + 4 + 4*len(e.Vec)
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Vec)))
	for _, f := range e.Vec {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// EncodeEntry returns the binary encoding of e.
func EncodeEntry(e Entry) []byte {
	return AppendEntry(make([]byte, 0, EncodedEntrySize(e)), e)
}

// EntryView is one encoded entry record located by ScanEntry: the record's
// span plus where its variable-length fields end, so each field is a slice
// expression away. Everything aliases the scanned buffer — a view is valid
// only as long as that buffer is. The read path uses views to move a
// ciphertext without copying it; anything that stores an entry decodes it
// with DecodeEntry.
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

// Vec is the plaintext vector of a plain-deployment entry: float32 × len/4.
func (v *EntryView) Vec() []byte { return v.Record[v.payloadEnd+4:] }

// ScanEntry locates one entry record at the front of buf without allocating
// or copying, returning its view and the remaining bytes. It is the only
// parser of the record layout: DecodeEntry is built on it.
func ScanEntry(buf []byte) (EntryView, []byte, error) {
	if len(buf) < 10 {
		return EntryView{}, nil, ErrCodec
	}
	permEnd := 10 + 4*int(binary.LittleEndian.Uint16(buf[8:]))
	if len(buf) < permEnd+2 {
		return EntryView{}, nil, ErrCodec
	}
	distsEnd := permEnd + 2 + 8*int(binary.LittleEndian.Uint16(buf[permEnd:]))
	if len(buf) < distsEnd+4 {
		return EntryView{}, nil, ErrCodec
	}
	payloadEnd := distsEnd + 4 + int(binary.LittleEndian.Uint32(buf[distsEnd:]))
	if len(buf) < payloadEnd+4 {
		return EntryView{}, nil, ErrCodec
	}
	end := payloadEnd + 4 + 4*int(binary.LittleEndian.Uint32(buf[payloadEnd:]))
	if len(buf) < end {
		return EntryView{}, nil, ErrCodec
	}
	return EntryView{
		ID:      binary.LittleEndian.Uint64(buf),
		Record:  buf[:end:end],
		permEnd: permEnd, distsEnd: distsEnd, payloadEnd: payloadEnd,
	}, buf[end:], nil
}

// DecodeEntry decodes one entry from the front of buf, returning the entry
// and the remaining bytes. The entry owns its memory (every field is
// copied out of buf), which is what every write, ingest and log path needs:
// a stored entry must not pin, or be overwritten with, the frame it arrived
// in. (A bucket file read back for a search is decoded whole instead, into
// blocks that live and die with the bucket image: decodeBucket.)
func DecodeEntry(buf []byte) (Entry, []byte, error) {
	v, rest, err := ScanEntry(buf)
	if err != nil {
		return Entry{}, nil, err
	}
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
	if vec := v.Vec(); len(vec) > 0 {
		e.Vec = make(metric.Vector, len(vec)/4)
		simd.DecodeF32LE(e.Vec, vec)
	}
	return e, rest, nil
}

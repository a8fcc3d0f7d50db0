package mindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Bucket is a bucket's content in the one form it has everywhere: its entry
// records as AppendEntry writes them, back to back — the image, byte for
// byte a DiskStore bucket file — plus where each record starts. Searches
// filter and rank straight from the image through EntryViews; nothing reads
// a bucket in any other form.
//
// A Bucket is a value over two slices and shares their discipline: a
// snapshot is never written through, an append writes only past its end or
// relocates, so a snapshot stays valid while its bucket keeps growing. The
// records are read-only.
type Bucket struct {
	img []byte
	// offs[i] is where record i starts; it ends where record i+1 starts, the
	// last at len(img).
	offs []uint32
}

// Len returns the number of records.
func (b Bucket) Len() int { return len(b.offs) }

// At returns the view of record i, aliasing the image.
func (b Bucket) At(i int) EntryView {
	v, _, _ := ScanEntry(b.img[b.offs[i]:]) // validated when it entered the bucket
	return v
}

// filterFields returns what a pivot filter reads of record i, its ID and
// its stored distances, without locating the record's other fields.
func (b Bucket) filterFields(i int) (id uint64, dists []byte) {
	rec := b.img[b.offs[i]:]
	return binary.LittleEndian.Uint64(rec), recordDists(rec)
}

// Bytes returns the image.
func (b Bucket) Bytes() []byte { return b.img }

// prefix returns the first n records in O(1). Its slices are capped, so an
// append to it relocates instead of writing over record n.
func (b Bucket) prefix(n int) Bucket {
	end := len(b.img)
	if n < len(b.offs) {
		end = int(b.offs[n])
	}
	return Bucket{img: b.img[:end:end], offs: b.offs[:n:n]}
}

// reset returns an empty bucket over b's arrays, to be written from the
// start: for a scratch bucket whose content is done with.
func (b Bucket) reset() Bucket { return Bucket{img: b.img[:0], offs: b.offs[:0]} }

// clone returns a copy owning exactly sized memory.
func (b Bucket) clone() Bucket {
	return Bucket{
		img:  append(make([]byte, 0, len(b.img)), b.img...),
		offs: append(make([]uint32, 0, len(b.offs)), b.offs...),
	}
}

// appendEntry encodes e as a new last record. Like append, the result may
// share b's arrays.
func (b Bucket) appendEntry(e *Entry) Bucket {
	b.offs = append(b.offs, b.nextOffset(EncodedEntrySize(*e)))
	b.img = AppendEntry(b.img, *e)
	return b
}

// appendView copies one record in as a new last record.
func (b Bucket) appendView(v *EntryView) Bucket {
	b.offs = append(b.offs, b.nextOffset(len(v.Record)))
	b.img = append(b.img, v.Record...)
	return b
}

// appendBucket copies every record of src in, in order: the image and the
// offset table each grow at most once.
func (b Bucket) appendBucket(src Bucket) Bucket {
	base := b.nextOffset(len(src.img))
	b.img = append(b.img, src.img...)
	b.offs = slices.Grow(b.offs, len(src.offs))
	for _, o := range src.offs {
		b.offs = append(b.offs, base+o)
	}
	return b
}

// nextOffset is where a record appended now starts, checking that n more
// bytes keep every offset representable.
func (b Bucket) nextOffset(n int) uint32 {
	if len(b.img)+n > math.MaxUint32 {
		panic("mindex: bucket image beyond 4 GiB")
	}
	return uint32(len(b.img))
}

// parseBucket validates img as the image of a bucket of count records —
// whole records back to back, exactly count of them — and indexes it,
// aliasing img. It is one ScanEntry pass, so it accepts exactly the images a
// ScanEntry loop reads to the end without an error. The offset table is
// built in offs' array when it has room (a search's scratch), in a new one
// otherwise.
func parseBucket(img []byte, count int, offs []uint32) (Bucket, error) {
	if len(img) > math.MaxUint32 {
		return Bucket{}, fmt.Errorf("%w: bucket image of %d bytes", ErrCodec, len(img))
	}
	// A record is at least 20 bytes, which bounds a count the image cannot
	// hold; a right one sizes the table exactly.
	if want := min(max(count, 0), len(img)/20); cap(offs) < want {
		offs = make([]uint32, 0, want)
	}
	offs = offs[:0]
	for rest := img; len(rest) > 0; {
		if len(offs) == count {
			return Bucket{}, fmt.Errorf("mindex: bucket image holds more than %d entries", count)
		}
		offs = append(offs, uint32(len(img)-len(rest)))
		var err error
		if _, rest, err = ScanEntry(rest); err != nil {
			return Bucket{}, err
		}
	}
	if len(offs) != count {
		return Bucket{}, fmt.Errorf("mindex: bucket image holds %d entries, expected %d", len(offs), count)
	}
	return Bucket{img: img, offs: offs}, nil
}

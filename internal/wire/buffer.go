package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"simcloud/internal/metric"
)

// ErrCodec reports a malformed message payload.
var ErrCodec = errors.New("wire: malformed message payload")

// Buffer is an append-only message payload writer.
type Buffer struct {
	B []byte
}

// Reset truncates the buffer for reuse, keeping its capacity.
func (b *Buffer) Reset() { b.B = b.B[:0] }

// maxPooledBuffer bounds the capacity of a buffer returned to the pool, so
// one outsized response cannot pin megabytes for the pool's lifetime.
const maxPooledBuffer = 4 << 20

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer hands out a pooled, reset payload buffer. Encoding responses
// into a pooled buffer (see the AppendTo methods on the hot response types)
// lets a serving loop reuse one allocation across requests instead of
// paying a fresh payload slice per response.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool once its bytes have been written
// out. The caller must not touch b.B — or anything decoded by reference out
// of it — afterwards.
func PutBuffer(b *Buffer) {
	if poisonOnPut.Load() {
		poison(b.B[:cap(b.B)])
	}
	if cap(b.B) > maxPooledBuffer {
		return
	}
	bufferPool.Put(b)
}

// poisonOnPut makes PutBuffer overwrite what it takes back (tests only).
var poisonOnPut atomic.Bool

// PoisonBuffers makes PutBuffer overwrite every buffer it takes back until
// the test ends, so a view decoded by reference that outlives its frame
// reads garbage every time instead of stale-but-plausible bytes some of the
// time. It exists for the lifetime tests of the packages that lease frames
// (cluster, core, gateway); nothing outside a test may call it.
func PoisonBuffers(t interface{ Cleanup(func()) }) {
	poisonOnPut.Store(true)
	t.Cleanup(func() { poisonOnPut.Store(false) })
}

func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// U8 appends a byte.
func (b *Buffer) U8(v uint8) { b.B = append(b.B, v) }

// U32 appends a uint32.
func (b *Buffer) U32(v uint32) { b.B = binary.LittleEndian.AppendUint32(b.B, v) }

// U64 appends a uint64.
func (b *Buffer) U64(v uint64) { b.B = binary.LittleEndian.AppendUint64(b.B, v) }

// F64 appends a float64.
func (b *Buffer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (b *Buffer) Bytes(v []byte) {
	b.U32(uint32(len(v)))
	b.B = append(b.B, v...)
}

// String appends a length-prefixed string.
func (b *Buffer) String(v string) {
	b.U32(uint32(len(v)))
	b.B = append(b.B, v...)
}

// F64Slice appends a length-prefixed []float64.
func (b *Buffer) F64Slice(v []float64) {
	b.U32(uint32(len(v)))
	for _, f := range v {
		b.F64(f)
	}
}

// I32Slice appends a length-prefixed []int32.
func (b *Buffer) I32Slice(v []int32) {
	b.U32(uint32(len(v)))
	for _, i := range v {
		b.U32(uint32(i))
	}
}

// Vec appends a length-prefixed metric vector (float32 components).
func (b *Buffer) Vec(v metric.Vector) {
	b.U32(uint32(len(v)))
	for _, f := range v {
		b.U32(math.Float32bits(f))
	}
}

// Reader consumes a message payload written by Buffer. All methods are
// sticky-error: after the first failure every subsequent read returns zero
// values and Err reports the failure.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps payload bytes.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or an error if unconsumed bytes
// remain (call after all fields are read).
func (r *Reader) Err() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrCodec
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrCodec
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// len32 reads a length prefix, bounding it by the remaining payload so a
// hostile length cannot trigger a huge allocation.
func (r *Reader) len32(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.b) {
		r.err = ErrCodec
		return 0
	}
	return n
}

// BytesField reads a length-prefixed byte slice (copied).
func (r *Reader) BytesField() []byte {
	n := r.len32(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// StringField reads a length-prefixed string.
func (r *Reader) StringField() string { return string(r.BytesField()) }

// F64Slice reads a length-prefixed []float64.
func (r *Reader) F64Slice() []float64 {
	n := r.len32(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// I32Slice reads a length-prefixed []int32.
func (r *Reader) I32Slice() []int32 {
	n := r.len32(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.U32())
	}
	return out
}

// VecField reads a length-prefixed metric vector.
func (r *Reader) VecField() metric.Vector {
	n := r.len32(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make(metric.Vector, n)
	for i := range out {
		out[i] = math.Float32frombits(r.U32())
	}
	return out
}

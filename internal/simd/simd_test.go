package simd

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Scalar reference loops — the exact accumulation the metric package used
// before the kernels existed. The property tests assert the unrolled kernels
// reproduce these bit-for-bit on every dimension.

func scalarL1(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func scalarSqL2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func scalarChebyshev(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func scalarPowSum(a, b []float32, p float64) float64 {
	var s float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		s += math.Pow(d, p)
	}
	return s
}

func scalarDotNorms(a, b []float32) (dot, na, nb float64) {
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	return dot, na, nb
}

func scalarAbsMaxDiff64(a, b []float64) float64 {
	n := min(len(a), len(b))
	var m float64
	for i := range n {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// sameBits reports float64 identity including the sign of zero — the
// equivalence the ranked-list suites depend on (equal distances must stay
// equal across code paths).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y)
}

// randVec draws components from a mix of smooth values, exact integers
// (quantization-friendly), repeats and zeros so ties and cancellation
// actually occur.
func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		switch rng.IntN(4) {
		case 0:
			v[i] = float32(rng.NormFloat64() * 100)
		case 1:
			v[i] = float32(rng.IntN(256))
		case 2:
			v[i] = 0
		default:
			v[i] = float32(rng.Float64()*2 - 1)
		}
	}
	return v
}

// edgeVec draws components from the values where a branch-free |d| could
// part from the compare-and-negate reference: signed zeros (so d = −0),
// subnormals, ±MaxFloat32, and small magnitudes of both signs so that
// differences tie in size with opposite signs.
func edgeVec(rng *rand.Rand, dim int) []float32 {
	negZero := float32(math.Copysign(0, -1))
	palette := []float32{
		0, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
		1, -1, 1.5, -1.5,
	}
	v := make([]float32, dim)
	for i := range v {
		v[i] = palette[rng.IntN(len(palette))]
	}
	return v
}

// TestKernelsMatchScalar sweeps every dimension 1..130 — crossing every
// unroll-width boundary (4, 8) with every remainder — with many random
// and edge-value vector pairs per dimension, asserting bitwise agreement of
// all float32 kernels with the scalar references.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for dim := 1; dim <= 130; dim++ {
		for trial := range 30 {
			a, b := randVec(rng, dim), randVec(rng, dim)
			if trial >= 20 {
				a, b = edgeVec(rng, dim), edgeVec(rng, dim)
			}
			if got, want := L1(a, b), scalarL1(a, b); !sameBits(got, want) {
				t.Fatalf("L1 dim %d: got %x, want %x", dim, got, want)
			}
			if got, want := SqL2(a, b), scalarSqL2(a, b); !sameBits(got, want) {
				t.Fatalf("SqL2 dim %d: got %x, want %x", dim, got, want)
			}
			if got, want := Chebyshev(a, b), scalarChebyshev(a, b); !sameBits(got, want) {
				t.Fatalf("Chebyshev dim %d: got %x, want %x", dim, got, want)
			}
			p := 1 + rng.Float64()*3
			if got, want := PowSum(a, b, p), scalarPowSum(a, b, p); !sameBits(got, want) {
				t.Fatalf("PowSum dim %d p=%g: got %x, want %x", dim, p, got, want)
			}
			dot, na, nb := DotNorms(a, b)
			wd, wa, wb := scalarDotNorms(a, b)
			if !sameBits(dot, wd) || !sameBits(na, wa) || !sameBits(nb, wb) {
				t.Fatalf("DotNorms dim %d: got (%x,%x,%x), want (%x,%x,%x)",
					dim, dot, na, nb, wd, wa, wb)
			}
		}
	}
	// The little-endian bound kernel over every length 0..67 — every block
	// count and tail of its 4-wide loop — against a shorter, equal and longer
	// stored row, with a ragged byte tail, and over the values its compares
	// are sensitive to (NaN, ±0, ±Inf beside ordinary distances).
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.5}
	for n := 0; n <= 67; n++ {
		for trial := range 12 {
			a := make([]float64, n)
			b := make([]float64, max(n+rng.IntN(5)-2, 0))
			for _, v := range [][]float64{a, b} {
				for i := range v {
					v[i] = rng.NormFloat64() * 50
					if trial >= 6 {
						v[i] = edges[rng.IntN(len(edges))]
					}
				}
			}
			raw := encodeF64(b)
			if trial%3 == 0 {
				raw = append(raw, 1, 2, 3) // not a whole element: ignored
			}
			for _, l := range []float64{0, 1, 25, 100, math.Inf(1), math.NaN(), -1} {
				checkAboveLE(t, a, raw, l)
			}
		}
	}
}

// encodeF64 is the stored little-endian form of v.
func encodeF64(v []float64) []byte {
	raw := make([]byte, 8*len(v))
	for i, x := range v {
		u := math.Float64bits(x)
		for k := range 8 {
			raw[8*i+k] = byte(u >> (8 * k))
		}
	}
	return raw
}

// checkAboveLE holds AbsMaxDiff64AboveLE to its definition: DecodeF64LE of
// the stored row, then AbsMaxDiff64Above, with the same result bits and the
// same verdict whether or not the early exit fires.
func checkAboveLE(t *testing.T, a []float64, raw []byte, limit float64) {
	t.Helper()
	b := make([]float64, len(raw)/8)
	DecodeF64LE(b, raw)
	want, wantAbove := AbsMaxDiff64Above(a, b, limit)
	got, above := AbsMaxDiff64AboveLE(a, raw, limit)
	if above != wantAbove || !sameBits(got, want) {
		t.Fatalf("AbsMaxDiff64AboveLE %d/%d limit %g: got (%x, %v), want (%x, %v)", len(a), len(raw), limit, got, above, want, wantAbove)
	}
}

// TestAbsMaxDiff64MatchesScalar covers the float64 pivot-filter kernels,
// including mismatched lengths (LowerBound truncates to the shorter vector)
// and NaN distances, which both ignore.
func TestAbsMaxDiff64MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for dim := 1; dim <= 130; dim++ {
		for range 10 {
			a := make([]float64, dim)
			b := make([]float64, rng.IntN(dim)+1)
			for i := range a {
				a[i] = rng.NormFloat64() * 50
			}
			for i := range b {
				b[i] = rng.NormFloat64() * 50
				if rng.IntN(20) == 0 {
					b[i] = math.NaN()
				}
			}
			want := scalarAbsMaxDiff64(a, b)
			if got := AbsMaxDiff64(a, b); !sameBits(got, want) {
				t.Fatalf("AbsMaxDiff64 %d/%d: got %x, want %x", len(a), len(b), got, want)
			}
			checkAbove(t, a, b, want, rng.Float64()*want*1.5)
		}
	}
}

// checkAbove holds AbsMaxDiff64Above to its contract against the exact
// maximum want: at limit and at the limits around want, above is exactly
// want > limit, and a maximum not above the limit comes back bit for bit.
func checkAbove(t *testing.T, a, b []float64, want, limit float64) {
	t.Helper()
	for _, l := range []float64{limit, want, math.Nextafter(want, math.Inf(-1)), math.Nextafter(want, math.Inf(1)),
		0, -1, math.Inf(1), math.NaN()} {
		got, above := AbsMaxDiff64Above(a, b, l)
		if above != (want > l) || (!above && !sameBits(got, want)) || (above && !(got > l)) {
			t.Fatalf("AbsMaxDiff64Above %d/%d limit %g: got (%g, %v), want max %g", len(a), len(b), l, got, above, want)
		}
	}
}

// FuzzKernels lets the fuzzer hunt for inputs where any kernel diverges from
// its scalar reference; the byte corpus is reinterpreted as two float32
// vectors of equal, arbitrary length.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 130*8))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x7f}) // +Inf − +Inf
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8 // bytes per element pair
		if n == 0 {
			return
		}
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range n {
			a[i] = math.Float32frombits(le32(raw[i*8:]))
			b[i] = math.Float32frombits(le32(raw[i*8+4:]))
		}
		// NaN payloads can legally differ between code paths; the metric
		// domain is finite vectors, so normalize NaN inputs away. Infinite
		// inputs still make NaN terms (+Inf − +Inf), whose sign the
		// reference's negate keeps and math.Abs clears: results compare by
		// bits, or by both being NaN.
		same := func(x, y float64) bool { return sameBits(x, y) || (x != x && y != y) }
		for i := range n {
			if a[i] != a[i] {
				a[i] = 0
			}
			if b[i] != b[i] {
				b[i] = 0
			}
		}
		if got, want := L1(a, b), scalarL1(a, b); !same(got, want) {
			t.Fatalf("L1: got %x, want %x", got, want)
		}
		if got, want := SqL2(a, b), scalarSqL2(a, b); !same(got, want) {
			t.Fatalf("SqL2: got %x, want %x", got, want)
		}
		if got, want := Chebyshev(a, b), scalarChebyshev(a, b); !same(got, want) {
			t.Fatalf("Chebyshev: got %x, want %x", got, want)
		}
		if got, want := PowSum(a, b, 2.5), scalarPowSum(a, b, 2.5); !same(got, want) {
			t.Fatalf("PowSum: got %x, want %x", got, want)
		}
		// The float64 pivot-filter kernels over the same values, with a
		// limit taken from the input.
		a64, b64 := make([]float64, n), make([]float64, n)
		for i := range n {
			a64[i], b64[i] = float64(a[i]), float64(b[i])
		}
		want := scalarAbsMaxDiff64(a64, b64)
		if got := AbsMaxDiff64(a64, b64); !sameBits(got, want) {
			t.Fatalf("AbsMaxDiff64: got %x, want %x", got, want)
		}
		checkAbove(t, a64, b64, want, math.Abs(a64[0]))
		// The little-endian form reads the raw bytes themselves as the stored
		// row, NaN payloads and all, against the row decoded from them.
		checkAboveLE(t, a64, raw, math.Abs(a64[0]))
		checkAboveLE(t, a64, raw, math.Inf(1))
	})
}

// The decoders' specification is the per-element binary.LittleEndian loop
// they replaced; le32 and le64 spell the byte order out by hand so the
// reference shares no code with the kernels.

func refDecodeF32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(le32(src[4*i:]))
	}
}

func refDecodeI32(dst []int32, src []byte) {
	for i := range dst {
		dst[i] = int32(le32(src[4*i:]))
	}
}

func refDecodeF64(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le64(src[8*i:]))
	}
}

// checkDecoders decodes n elements of each width from raw (which must hold
// at least 8n bytes) with every decoder and its reference, comparing bits —
// NaN payloads included, a decode moves bytes and must not canonicalise.
func checkDecoders(t *testing.T, n int, raw []byte) {
	t.Helper()
	f32, wantF32 := make([]float32, n), make([]float32, n)
	DecodeF32LE(f32, raw)
	refDecodeF32(wantF32, raw)
	i32, wantI32 := make([]int32, n), make([]int32, n)
	DecodeI32LE(i32, raw)
	refDecodeI32(wantI32, raw)
	f64, wantF64 := make([]float64, n), make([]float64, n)
	DecodeF64LE(f64, raw)
	refDecodeF64(wantF64, raw)
	for i := range n {
		if math.Float32bits(f32[i]) != math.Float32bits(wantF32[i]) {
			t.Fatalf("DecodeF32LE n=%d [%d]: got %x, want %x", n, i, f32[i], wantF32[i])
		}
		if i32[i] != wantI32[i] {
			t.Fatalf("DecodeI32LE n=%d [%d]: got %d, want %d", n, i, i32[i], wantI32[i])
		}
		if !sameBits(f64[i], wantF64[i]) {
			t.Fatalf("DecodeF64LE n=%d [%d]: got %x, want %x", n, i, f64[i], wantF64[i])
		}
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestDecodersMatchLoop covers every length 0..67 — every block count and
// every tail of the 4- and 8-wide loops — on random bytes, with the source
// exact and with bytes to spare, and pins the short-source failure: a panic,
// as the indexing loop had it, never a partial silent decode.
func TestDecodersMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for n := 0; n <= 67; n++ {
		for _, spare := range []int{0, 3} {
			raw := make([]byte, 8*n+spare)
			for i := range raw {
				raw[i] = byte(rng.Uint32())
			}
			checkDecoders(t, n, raw)
		}
		if n == 0 {
			continue
		}
		// Capacity to spare beyond the short length: a decoder that
		// re-slices src up to what it needs would read on unnoticed.
		short := make([]byte, 8*n)
		if !panics(func() { DecodeF32LE(make([]float32, n), short[:4*n-1]) }) ||
			!panics(func() { DecodeI32LE(make([]int32, n), short[:4*n-1]) }) ||
			!panics(func() { DecodeF64LE(make([]float64, n), short[:8*n-1]) }) {
			t.Fatalf("n=%d: a decoder accepted a source one byte short", n)
		}
	}
}

// FuzzDecoders reinterprets the corpus as n = len/8 elements of each width.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0xff}) // +Inf, a NaN payload
	f.Add(make([]byte, 67*8))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecoders(t, len(raw)/8, raw)
	})
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// Package simd holds the unrolled hot-loop kernels behind the metric
// distance functions and the pivot machinery: float32→float64 accumulation
// for L1/L2/Lp/Chebyshev, the float64 Chebyshev used by pivot filtering, the
// uint16 quantization gate of the fixed-point promise path, the
// little-endian vector decoders behind refine and ingest, and the pivot
// filter that reads stored distances in their little-endian form.
//
// The package is pure Go — no assembly, no build tags, no unsafe — and
// despite its name nothing here is vectorised: gc has no autovectorizer.
// What the unroll buys is loop control paid once per 4–8 elements and
// straight-line bodies whose independent convert/subtract/abs work the CPU
// overlaps; gc still emits the per-element bounds checks of the float
// kernels (-gcflags=-d=ssa/check_bce), which predict perfectly and hide
// under the accumulator's add latency, while the decoders, whose loops are
// bounded by the slice lengths themselves, carry none. The contract every
// kernel obeys, enforced by the property tests in simd_test.go, is
// bit-for-bit equivalence with the scalar reference loop:
//
//   - Sum kernels (L1, SqL2, PowSum) keep a single accumulator and add the
//     per-element terms in index order, exactly like the scalar loop.
//     Reassociating the sum into lanes would be faster but would change
//     results in the last bit, and equal distances must stay equal across
//     every code path (the ranked-list equivalence suites compare them
//     exactly).
//   - No data-dependent branch in a sum kernel: |d| is math.Abs (an AND on
//     amd64/arm64), never `if d < 0 { d = -d }`. The sign of a coordinate
//     difference is a coin toss the branch predictor loses half the time on
//     rows it has not seen before, and a benchmark that loops over a few
//     rows hides it (the /repeat and /stream benchmarks in bench_test.go
//     differ by 4–6× on the branchy loop).
//   - Max kernels (Chebyshev, AbsMaxDiff64, AbsMaxDiff64Above[LE]) may use
//     multiple accumulator lanes: max over non-NaN floats is associative
//     and commutative, so the lane split cannot change the result. They
//     keep their `if d > m` compare: it ignores a NaN term where the
//     builtin max would propagate it, and range filtering over stored
//     distances relies on that (mindex's TestBoxBoundsAndRangeEquivalence).
package simd

import (
	"encoding/binary"
	"math"
)

// L1 returns Σ|a[i]−b[i]| accumulated in float64. Both slices must have the
// same length (callers check dimensions; see metric.dimCheck).
func L1(a, b []float32) float64 {
	n := len(a)
	_ = b[:n]
	var s float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s += math.Abs(float64(a[i]) - float64(b[i]))
		s += math.Abs(float64(a[i+1]) - float64(b[i+1]))
		s += math.Abs(float64(a[i+2]) - float64(b[i+2]))
		s += math.Abs(float64(a[i+3]) - float64(b[i+3]))
	}
	for ; i < n; i++ {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s
}

// SqL2 returns Σ(a[i]−b[i])² accumulated in float64 (the squared Euclidean
// distance; the caller takes the root).
func SqL2(a, b []float32) float64 {
	n := len(a)
	_ = b[:n]
	var s float64
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		d4 := float64(a[i+4]) - float64(b[i+4])
		d5 := float64(a[i+5]) - float64(b[i+5])
		d6 := float64(a[i+6]) - float64(b[i+6])
		d7 := float64(a[i+7]) - float64(b[i+7])
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		s += d4 * d4
		s += d5 * d5
		s += d6 * d6
		s += d7 * d7
	}
	for ; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Chebyshev returns max|a[i]−b[i]| in float64. Four independent max lanes
// break the loop-carried dependence; the lane merge is exact because max is
// associative and commutative.
func Chebyshev(a, b []float32) float64 {
	n := len(a)
	_ = b[:n]
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := math.Abs(float64(a[i]) - float64(b[i]))
		d1 := math.Abs(float64(a[i+1]) - float64(b[i+1]))
		d2 := math.Abs(float64(a[i+2]) - float64(b[i+2]))
		d3 := math.Abs(float64(a[i+3]) - float64(b[i+3]))
		if d0 > m0 {
			m0 = d0
		}
		if d1 > m1 {
			m1 = d1
		}
		if d2 > m2 {
			m2 = d2
		}
		if d3 > m3 {
			m3 = d3
		}
	}
	for ; i < n; i++ {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m0 {
			m0 = d
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// PowSum returns Σ|a[i]−b[i]|^p accumulated in float64 (the Minkowski Lp
// core; the caller applies the outer 1/p root). math.Pow dominates the cost,
// so the unroll only overlaps the subtract/abs work, still adding terms in
// index order through the single accumulator.
func PowSum(a, b []float32, p float64) float64 {
	n := len(a)
	_ = b[:n]
	var s float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := math.Abs(float64(a[i]) - float64(b[i]))
		d1 := math.Abs(float64(a[i+1]) - float64(b[i+1]))
		d2 := math.Abs(float64(a[i+2]) - float64(b[i+2]))
		d3 := math.Abs(float64(a[i+3]) - float64(b[i+3]))
		s += math.Pow(d0, p)
		s += math.Pow(d1, p)
		s += math.Pow(d2, p)
		s += math.Pow(d3, p)
	}
	for ; i < n; i++ {
		s += math.Pow(math.Abs(float64(a[i])-float64(b[i])), p)
	}
	return s
}

// DotNorms returns (Σ a[i]·b[i], Σ a[i]², Σ b[i]²) accumulated in float64 —
// the three sums behind the cosine/angular distance, computed in one pass.
// Each sum keeps a single accumulator and adds its per-element terms in
// index order (the sum-kernel contract above), so the results are
// bit-for-bit identical to three scalar reference loops; the unroll only
// overlaps the independent multiply work of four elements.
func DotNorms(a, b []float32) (dot, na, nb float64) {
	n := len(a)
	_ = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, b0 := float64(a[i]), float64(b[i])
		a1, b1 := float64(a[i+1]), float64(b[i+1])
		a2, b2 := float64(a[i+2]), float64(b[i+2])
		a3, b3 := float64(a[i+3]), float64(b[i+3])
		dot += a0 * b0
		dot += a1 * b1
		dot += a2 * b2
		dot += a3 * b3
		na += a0 * a0
		na += a1 * a1
		na += a2 * a2
		na += a3 * a3
		nb += b0 * b0
		nb += b1 * b1
		nb += b2 * b2
		nb += b3 * b3
	}
	for ; i < n; i++ {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	return dot, na, nb
}

// AbsMaxDiff64 returns max|a[i]−b[i]| over the first min(len(a), len(b))
// elements — the pivot-filtering lower bound of the paper's Algorithm 3
// (pivot.LowerBound), which compares two float64 distance vectors.
func AbsMaxDiff64(a, b []float64) float64 {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := math.Abs(a[i] - b[i])
		d1 := math.Abs(a[i+1] - b[i+1])
		d2 := math.Abs(a[i+2] - b[i+2])
		d3 := math.Abs(a[i+3] - b[i+3])
		if d0 > m0 {
			m0 = d0
		}
		if d1 > m1 {
			m1 = d1
		}
		if d2 > m2 {
			m2 = d2
		}
		if d3 > m3 {
			m3 = d3
		}
	}
	for ; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > m0 {
			m0 = d
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// AbsMaxDiff64Above reports whether AbsMaxDiff64(a, b) exceeds limit and,
// when it does not, returns it exactly. It gives up at the first block of
// four elements that takes a lane above limit — most of the entries a pivot
// filter sees are rejected within a few pivots — so when it reports true the
// value is only some partial maximum above limit. A NaN limit is exceeded by
// nothing, as in the comparison it replaces.
func AbsMaxDiff64Above(a, b []float64, limit float64) (float64, bool) {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := math.Abs(a[i] - b[i])
		d1 := math.Abs(a[i+1] - b[i+1])
		d2 := math.Abs(a[i+2] - b[i+2])
		d3 := math.Abs(a[i+3] - b[i+3])
		if d0 > m0 {
			m0 = d0
		}
		if d1 > m1 {
			m1 = d1
		}
		if d2 > m2 {
			m2 = d2
		}
		if d3 > m3 {
			m3 = d3
		}
		if m0 > limit || m1 > limit || m2 > limit || m3 > limit {
			return max(m0, m1, m2, m3), true
		}
	}
	for ; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > m0 {
			m0 = d
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0, m0 > limit
}

// AbsMaxDiff64AboveLE is AbsMaxDiff64Above with b read straight from its
// little-endian encoding — float64 × len(b)/8, the stored form of an entry's
// pivot distances — so a pivot filter over a bucket image decodes nothing.
// The result is bit-identical to DecodeF64LE into a slice followed by
// AbsMaxDiff64Above, early exit included: the same lanes see the same values
// in the same order.
func AbsMaxDiff64AboveLE(a []float64, b []byte, limit float64) (float64, bool) {
	n := min(len(a), len(b)/8)
	a, b = a[:n], b[:8*n]
	var m0, m1, m2, m3 float64
	for len(a) >= 4 && len(b) >= 32 {
		d0 := math.Abs(a[0] - math.Float64frombits(binary.LittleEndian.Uint64(b[0:8])))
		d1 := math.Abs(a[1] - math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])))
		d2 := math.Abs(a[2] - math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])))
		d3 := math.Abs(a[3] - math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])))
		if d0 > m0 {
			m0 = d0
		}
		if d1 > m1 {
			m1 = d1
		}
		if d2 > m2 {
			m2 = d2
		}
		if d3 > m3 {
			m3 = d3
		}
		if m0 > limit || m1 > limit || m2 > limit || m3 > limit {
			return max(m0, m1, m2, m3), true
		}
		a, b = a[4:], b[32:]
	}
	for i := range a {
		if d := math.Abs(a[i] - math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))); d > m0 {
			m0 = d
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0, m0 > limit
}

// CanQuantizeU16 reports whether every distance lies exactly on the
// non-negative uint16 integer grid — the gate of the fixed-point promise
// path: when it holds, each distance is exactly representable as an integer
// below 2^16 and promise sums over such terms are exact dyadic rationals in
// float64 (see mindex's promiser). The check rejects NaN, negatives,
// fractional values and anything ≥ 65536.
func CanQuantizeU16(dists []float64) bool {
	for _, d := range dists {
		if !(d >= 0) || d >= 65536 || d != math.Trunc(d) {
			return false
		}
	}
	return true
}

// QuantizeDistsU16 converts a distance vector that passed CanQuantizeU16
// into its exact uint16 representation, appending to dst (pass dst[:0] to
// reuse a buffer). It returns false without writing when the vector does not
// qualify.
func QuantizeDistsU16(dst []uint16, dists []float64) ([]uint16, bool) {
	if !CanQuantizeU16(dists) {
		return dst, false
	}
	for _, d := range dists {
		dst = append(dst, uint16(d))
	}
	return dst, true
}

// DecodeF32LE fills dst with len(dst) little-endian float32 values read from
// the front of src. Both slices advance a whole block per iteration and the
// loop condition bounds both, so the body compiles to plain loads and stores
// with no bounds check, where a binary.LittleEndian.Uint32(src[4*i:]) loop
// pays a check and an index multiply per element. Object vectors are long
// (17–768 dimensions), hence eight per block; the pivot-row decoders below
// take four because their rows are 8–30 long and the tail is per element.
// It panics when src holds fewer than 4·len(dst) bytes, like the loop it
// replaces (callers validate lengths first).
func DecodeF32LE(dst []float32, src []byte) {
	for len(dst) >= 8 && len(src) >= 32 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(src[0:4]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(src[4:8]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(src[8:12]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(src[12:16]))
		dst[4] = math.Float32frombits(binary.LittleEndian.Uint32(src[16:20]))
		dst[5] = math.Float32frombits(binary.LittleEndian.Uint32(src[20:24]))
		dst[6] = math.Float32frombits(binary.LittleEndian.Uint32(src[24:28]))
		dst[7] = math.Float32frombits(binary.LittleEndian.Uint32(src[28:32]))
		dst, src = dst[8:], src[32:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// DecodeI32LE is DecodeF32LE for little-endian int32 values (permutations).
func DecodeI32LE(dst []int32, src []byte) {
	for len(dst) >= 4 && len(src) >= 16 {
		dst[0] = int32(binary.LittleEndian.Uint32(src[0:4]))
		dst[1] = int32(binary.LittleEndian.Uint32(src[4:8]))
		dst[2] = int32(binary.LittleEndian.Uint32(src[8:12]))
		dst[3] = int32(binary.LittleEndian.Uint32(src[12:16]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// DecodeF64LE is DecodeF32LE for little-endian float64 values (object–pivot
// distance rows).
func DecodeF64LE(dst []float64, src []byte) {
	for len(dst) >= 4 && len(src) >= 32 {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:16]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:24]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:32]))
		dst, src = dst[4:], src[32:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

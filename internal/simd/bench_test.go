package simd_test

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/simd"
)

// Every kernel benchmark runs twice: /repeat cycles 16 rows — what a loop
// over a fixed handful of inputs amounts to, few enough that a branch
// predictor memorises every data-dependent branch — and /stream cycles 512
// distinct CoPhIR rows (560 KB, L2-resident), too many to memorise, which is
// what refine and ingest feed the kernels in production. A kernel without
// data-dependent branches reads the same on both; CI gates the ratio
// (benchab -speedup-base 'L1/repeat' -speedup-new 'L1/stream').
var rowSets = []struct {
	name string
	rows int
}{{"repeat", 16}, {"stream", 512}}

var sink float64

// benchRows runs fn once per op against row i of each row set in turn; the
// query is rows[512], outside every set.
func benchRows[T any](b *testing.B, rows [][]T, fn func(q, row []T) float64) {
	for _, rs := range rowSets {
		b.Run(rs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += fn(rows[512], rows[i&(rs.rows-1)])
			}
		})
	}
}

// cophirRows returns n 280-d CoPhIR vectors.
func cophirRows(n int) [][]float32 {
	rows := make([][]float32, n)
	for i, o := range dataset.CoPhIR(n).Objects {
		rows[i] = o.Vec
	}
	return rows
}

func BenchmarkL1(b *testing.B)        { benchRows(b, cophirRows(513), simd.L1) }
func BenchmarkSqL2(b *testing.B)      { benchRows(b, cophirRows(513), simd.SqL2) }
func BenchmarkChebyshev(b *testing.B) { benchRows(b, cophirRows(513), simd.Chebyshev) }

// BenchmarkAbsMaxDiff64 is the pivot-filter bound at the paper's 30 pivots:
// each row is a vector's distances to 30 fixed pivots.
func BenchmarkAbsMaxDiff64(b *testing.B) {
	vecs := cophirRows(513 + 30)
	rows := make([][]float64, 513)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for p := range rows[i] {
			rows[i][p] = simd.L1(vecs[i], vecs[513+p])
		}
	}
	benchRows(b, rows, simd.AbsMaxDiff64)
}

// BenchmarkAbsMaxDiff64AboveLE is the same bound as a search takes it from a
// bucket image: each row in its stored little-endian form and no limit, so
// every pivot is read, beside the decode-then-filter it replaced (/decode).
func BenchmarkAbsMaxDiff64AboveLE(b *testing.B) {
	vecs := cophirRows(513 + 30)
	q := make([]float64, 30)
	raws := make([][]byte, 512)
	for i := range 513 {
		raw := make([]byte, 0, 8*30)
		for p := range 30 {
			d := simd.L1(vecs[i], vecs[513+p])
			if i == 512 {
				q[p] = d
			}
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(d))
		}
		if i < 512 {
			raws[i] = raw
		}
	}
	inf := math.Inf(1)
	for _, rs := range rowSets {
		b.Run(rs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lb, _ := simd.AbsMaxDiff64AboveLE(q, raws[i&(rs.rows-1)], inf)
				sink += lb
			}
		})
	}
	b.Run("decode", func(b *testing.B) {
		row := make([]float64, 30)
		for i := 0; i < b.N; i++ {
			simd.DecodeF64LE(row, raws[i&511])
			lb, _ := simd.AbsMaxDiff64Above(q, row, inf)
			sink += lb
		}
	})
}

// benchDecode measures one decoder over 280-element records (the length of a
// CoPhIR plaintext; a decode has no data-dependent work, so the bytes are
// arbitrary) beside the per-element binary.LittleEndian loop it replaced
// (/loop).
func benchDecode[T any](b *testing.B, width int, decode, loop func(dst []T, src []byte)) {
	rng := rand.New(rand.NewPCG(20, uint64(width)))
	srcs := make([][]byte, 512)
	for i := range srcs {
		srcs[i] = make([]byte, 280*width)
		for j := range srcs[i] {
			srcs[i][j] = byte(rng.Uint32())
		}
	}
	dst := make([]T, 280)
	run := func(fn func(dst []T, src []byte), rows int) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(srcs[0])))
			for i := 0; i < b.N; i++ {
				fn(dst, srcs[i&(rows-1)])
			}
		}
	}
	for _, rs := range rowSets {
		b.Run(rs.name, run(decode, rs.rows))
	}
	b.Run("loop", run(loop, 512))
}

func BenchmarkDecodeF32LE(b *testing.B) {
	benchDecode(b, 4, simd.DecodeF32LE, func(dst []float32, src []byte) {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	})
}

func BenchmarkDecodeF64LE(b *testing.B) {
	benchDecode(b, 8, simd.DecodeF64LE, func(dst []float64, src []byte) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	})
}

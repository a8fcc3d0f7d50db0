package pivot

import (
	"math/rand/v2"
	"testing"

	"simcloud/internal/dataset"
)

// BenchmarkPivotDistances is the ingest row: one 280-d CoPhIR object against
// the paper's 30 pivots, what every insert and delete pays before anything
// leaves the client. /repeat cycles 16 objects, /stream 512 (see
// internal/simd's benchmarks for why the two can differ).
func BenchmarkPivotDistances(b *testing.B) {
	ds := dataset.CoPhIR(512 + 30)
	set := SelectRandom(rand.New(rand.NewPCG(20, 30)), ds.Dist, ds.Objects[512:], 30)
	dst := make([]float64, set.N())
	for _, rs := range []struct {
		name string
		rows int
	}{{"repeat", 16}, {"stream", 512}} {
		b.Run(rs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.DistancesInto(dst, ds.Objects[i&(rs.rows-1)].Vec)
			}
		})
	}
}

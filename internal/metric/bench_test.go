package metric_test

import (
	"testing"

	"simcloud/internal/dataset"
)

var sink float64

// BenchmarkCoPhIRDist is one 280-d CoPhIR distance (the 64/64/12/80/60
// segment mix: four L1 segments and one L2) — the unit the paper's client
// costs are counted in. /repeat cycles 16 rows, few enough for a branch
// predictor to memorise any data-dependent branch in the kernels; /stream
// cycles 512 distinct rows, which is what refine and ingest feed it (see
// internal/simd's benchmarks). CI gates stream against repeat.
func BenchmarkCoPhIRDist(b *testing.B) {
	ds := dataset.CoPhIR(513)
	q := ds.Objects[512].Vec
	for _, rs := range []struct {
		name string
		rows int
	}{{"repeat", 16}, {"stream", 512}} {
		b.Run(rs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += ds.Dist.Dist(q, ds.Objects[i&(rs.rows-1)].Vec)
			}
		})
	}
}

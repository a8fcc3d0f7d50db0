package kmeans

import (
	"math"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
)

func TestTrainDeterministic(t *testing.T) {
	d := dataset.Clustered(3, 300, 8, 6, metric.L2{})
	cfg := TrainConfig{K: 6, Seed: 42, Dist: metric.L2{}}
	a, err := Train(cfg, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != 6 || b.K() != 6 {
		t.Fatalf("K = %d/%d, want 6", a.K(), b.K())
	}
	for j := range a.Centroids {
		if !a.Centroids[j].Equal(b.Centroids[j]) {
			t.Fatalf("centroid %d differs between identical runs", j)
		}
	}
	c, err := Train(TrainConfig{K: 6, Seed: 43, Dist: metric.L2{}}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range a.Centroids {
		if !a.Centroids[j].Equal(c.Centroids[j]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical centroids")
	}
}

func TestTrainReducesDistortion(t *testing.T) {
	// Lloyd must beat assigning everything to a single random point: the mean
	// distance to the assigned centroid should sit well below the mean
	// pairwise distance scale of the collection.
	d := dataset.Clustered(5, 400, 12, 8, metric.L2{})
	m, err := Train(TrainConfig{K: 8, Seed: 1, Dist: metric.L2{}}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	var toCentroid, toFirst float64
	for _, o := range d.Objects {
		_, dist := nearest(m.Dist, m.Centroids, o.Vec)
		toCentroid += dist
		toFirst += m.Dist.Dist(o.Vec, d.Objects[0].Vec)
	}
	if toCentroid >= toFirst/2 {
		t.Fatalf("training did not cluster: mean centroid dist %g vs mean dist to an arbitrary point %g",
			toCentroid/float64(len(d.Objects)), toFirst/float64(len(d.Objects)))
	}
}

func TestTrainSphericalCentroidsUnitNorm(t *testing.T) {
	d := dataset.Embed768(200)
	m, err := Train(TrainConfig{K: 5, Seed: 9, Dist: metric.Cosine{}}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range m.Centroids {
		var sq float64
		for _, v := range c {
			sq += float64(v) * float64(v)
		}
		if norm := math.Sqrt(sq); math.Abs(norm-1) > 1e-4 {
			t.Fatalf("spherical centroid %d has norm %g", j, norm)
		}
	}
}

func TestTrainSampleCap(t *testing.T) {
	d := dataset.Clustered(7, 500, 6, 4, metric.L2{})
	cfg := TrainConfig{K: 4, Seed: 2, SampleCap: 100, Dist: metric.L2{}}
	a, err := Train(cfg, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Centroids {
		if !a.Centroids[j].Equal(b.Centroids[j]) {
			t.Fatalf("sampled training not deterministic at centroid %d", j)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	d := dataset.Clustered(1, 10, 4, 2, metric.L2{})
	if _, err := Train(TrainConfig{K: 2, Seed: 1}, d.Objects); err == nil {
		t.Fatal("nil distance accepted")
	}
	if _, err := Train(TrainConfig{K: 0, Seed: 1, Dist: metric.L2{}}, d.Objects); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Train(TrainConfig{K: 11, Seed: 1, Dist: metric.L2{}}, d.Objects); err == nil {
		t.Fatal("K > n accepted")
	}
	if _, err := Train(TrainConfig{K: 8, Seed: 1, SampleCap: 4, Dist: metric.L2{}}, d.Objects); err == nil {
		t.Fatal("K > sample cap accepted")
	}
}

func TestTrainDuplicatePointsReseed(t *testing.T) {
	// A collection of identical points exercises the total<=0 branch of
	// k-means++ and the empty-cluster reseed without crashing.
	objs := make([]metric.Object, 12)
	for i := range objs {
		objs[i] = metric.Object{ID: uint64(i), Vec: metric.Vector{1, 2, 3}}
	}
	m, err := Train(TrainConfig{K: 3, Seed: 4, Dist: metric.L2{}}, objs)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d", m.K())
	}
}

func TestNearestTieBreaksToSmallerIndex(t *testing.T) {
	cents := []metric.Vector{{0, 1}, {1, 0}}
	j, _ := nearest(metric.L2{}, cents, metric.Vector{0, 0})
	if j != 0 {
		t.Fatalf("tie broke to %d, want 0", j)
	}
}

func TestPivotSetMatchesCentroids(t *testing.T) {
	d := dataset.Clustered(2, 60, 4, 3, metric.L2{})
	m, err := Train(TrainConfig{K: 3, Seed: 8, Dist: metric.L2{}}, d.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.PivotSet()
	if ps.N() != 3 {
		t.Fatalf("pivot set has %d pivots", ps.N())
	}
	q := d.Objects[0].Vec
	dists := ps.Distances(q)
	for j := range m.Centroids {
		if want := m.Dist.Dist(q, m.Centroids[j]); dists[j] != want {
			t.Fatalf("pivot dist %d = %g, want %g", j, dists[j], want)
		}
	}
}

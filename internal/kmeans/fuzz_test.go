package kmeans

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
)

// FuzzUnmarshalModel: hostile model blobs must never panic or allocate
// beyond their size, and whatever decodes must re-encode and decode to the
// same model (distance by name, centroids bit for bit).
func FuzzUnmarshalModel(f *testing.F) {
	d := dataset.Clustered(6, 40, 3, 2, metric.L2{})
	m, err := Train(TrainConfig{K: 2, Seed: 3, Dist: metric.L2{}}, d.Objects)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := m.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{blob, blob[:len(blob)-3], blob[:21], {}, overflowModelBlob()} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatalf("decoded model fails to marshal: %v", err)
		}
		back, err := UnmarshalModel(again)
		if err != nil {
			t.Fatalf("re-encoded model fails to decode: %v", err)
		}
		if back.Dist.Name() != got.Dist.Name() || back.K() != got.K() {
			t.Fatalf("round trip changed the model: %s/%d vs %s/%d", back.Dist.Name(), back.K(), got.Dist.Name(), got.K())
		}
		for j := range got.Centroids {
			if !slices.EqualFunc(got.Centroids[j], back.Centroids[j], func(a, b float32) bool {
				return math.Float32bits(a) == math.Float32bits(b)
			}) {
				t.Fatalf("round trip changed centroid %d", j)
			}
		}
	})
}

// FuzzUnmarshalPredictor: hostile predictor blobs must never panic, and
// whatever decodes must re-encode to the same bytes (the codec is
// canonical, so this also fixes every float bit, NaN included).
func FuzzUnmarshalPredictor(f *testing.F) {
	p, err := FitPredictor(synthCal(50, 5), 5, []float64{0.7, 0.9}, 4)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{blob, blob[:len(blob)-3], blob[:15], {}, overflowModelBlob()} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalPredictor(data)
		if err != nil {
			return
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatalf("decoded predictor fails to marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("predictor marshal round trip mismatch")
		}
		back, err := UnmarshalPredictor(again)
		if err != nil {
			t.Fatalf("re-encoded predictor fails to decode: %v", err)
		}
		if again2, _ := back.Marshal(); !bytes.Equal(again2, again) {
			t.Fatal("predictor decode of its own encoding differs")
		}
	})
}

package kmeans

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// synthCal builds a deterministic calibration profile over k=5 neighbors:
// queries below the d1 midpoint need wide candidate sets, queries above it
// narrow ones — a clean two-regime signal for the fit to recover.
func synthCal(n, k int) []CalSample {
	out := make([]CalSample, n)
	for i := range out {
		d1 := float64(i) * 10 / float64(n-1)
		base := 20
		if d1 < 5 {
			base = 200
		}
		need := make([]int, k)
		for j := range need {
			need[j] = base + 7*j + i%5
		}
		out[i] = CalSample{D1: d1, Need: need}
	}
	return out
}

func TestFitPredictorValidation(t *testing.T) {
	good := synthCal(40, 5)
	cases := []struct {
		name    string
		samples []CalSample
		k       int
		levels  []float64
		bins    int
	}{
		{"no samples", nil, 5, []float64{0.9}, 4},
		{"bad k", good, 0, []float64{0.9}, 4},
		{"bad bins", good, 5, []float64{0.9}, 0},
		{"no levels", good, 5, nil, 4},
		{"level zero", good, 5, []float64{0}, 4},
		{"level one", good, 5, []float64{1}, 4},
		{"levels not ascending", good, 5, []float64{0.9, 0.8}, 4},
		{"need length mismatch", []CalSample{{D1: 1, Need: []int{3}}}, 5, []float64{0.9}, 4},
		{"no finite needs", []CalSample{{D1: 1, Need: []int{math.MaxInt, math.MaxInt}}}, 2, []float64{0.9}, 4},
	}
	for _, tc := range cases {
		if _, err := FitPredictor(tc.samples, tc.k, tc.levels, tc.bins); err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
}

func TestFitPredictorShape(t *testing.T) {
	samples := synthCal(60, 5)
	levels := []float64{0.6, 0.8, 0.99}
	p, err := FitPredictor(samples, 5, levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 5 || len(p.Levels) != 3 || len(p.Edges) != 3 || len(p.Cand) != 3 {
		t.Fatalf("unexpected shape: k=%d levels=%d edges=%d rows=%d", p.K, len(p.Levels), len(p.Edges), len(p.Cand))
	}
	for b := 1; b < len(p.Edges); b++ {
		if p.Edges[b] < p.Edges[b-1] {
			t.Fatalf("edges not ascending: %v", p.Edges)
		}
	}
	for li, row := range p.Cand {
		if len(row) != 4 {
			t.Fatalf("level %d: %d bins, want 4", li, len(row))
		}
		for b, c := range row {
			if c < 5 {
				t.Fatalf("level %d bin %d: candidate count %d below k", li, b, c)
			}
			if li > 0 && c < p.Cand[li-1][b] {
				t.Fatalf("bin %d shrinks from level %g to %g: %d -> %d",
					b, p.Levels[li-1], p.Levels[li], p.Cand[li-1][b], c)
			}
		}
	}
}

func TestFitPredictorHitsTargetOnCalibration(t *testing.T) {
	const k = 5
	samples := synthCal(80, k)
	levels := []float64{0.7, 0.9}
	p, err := FitPredictor(samples, k, levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	for li, r := range levels {
		var recall float64
		for _, s := range samples {
			c := p.CandSize(r, s.D1)
			covered := 0
			for j := k - 1; j >= 0; j-- {
				if s.Need[j] <= c {
					covered = j + 1
					break
				}
			}
			recall += float64(covered) / float64(k)
		}
		recall /= float64(len(samples))
		if recall < r {
			t.Errorf("level %g: calibration recall %.3f below target (row %v)", r, recall, p.Cand[li])
		}
	}
}

func TestFitPredictorAdaptsAcrossBins(t *testing.T) {
	// The two-regime profile needs ~200 candidates below the midpoint and
	// ~20 above it; a fit that cannot allocate per bin would spend the same
	// everywhere.
	p, err := FitPredictor(synthCal(80, 5), 5, []float64{0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	row := p.Cand[0]
	if row[0] <= row[len(row)-1] {
		t.Fatalf("expensive low-d1 bin should out-spend the cheap high-d1 bin: %v", row)
	}
}

func TestFitPredictorClampsBinsToSamples(t *testing.T) {
	p, err := FitPredictor(synthCal(3, 5), 5, []float64{0.9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("bins should clamp to the sample count: %d edges for 3 samples", len(p.Edges))
	}
}

// TestFitPredictorIgnoresSampleOrder: the predictor is not persisted but
// refitted in each process, so a refit over the same calibration queries
// must give the same table whatever order they arrive in, and must leave
// the samples as it found them.
func TestFitPredictorIgnoresSampleOrder(t *testing.T) {
	samples := synthCal(60, 5)
	levels := []float64{0.6, 0.9}
	want, err := FitPredictor(samples, 5, levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(samples)
	rand.New(rand.NewPCG(3, 4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	kept := slices.Clone(shuffled)
	got, err := FitPredictor(shuffled, 5, levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refit over shuffled samples differs:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(shuffled, kept) {
		t.Fatal("FitPredictor modified its samples")
	}
}

func TestPredictorCandSizeLookup(t *testing.T) {
	p := &Predictor{
		K:      5,
		Levels: []float64{0.8, 0.9},
		Edges:  []float64{2, 4},
		Cand:   [][]int{{30, 20, 10}, {60, 40, 15}},
	}
	cases := []struct {
		target, d1 float64
		want       int
	}{
		{0.8, 1, 30},   // exact level, first bin
		{0.8, 2, 30},   // on the edge -> lower bin
		{0.8, 3, 20},   // middle bin
		{0.8, 9, 10},   // beyond last edge -> last bin
		{0.85, 1, 60},  // between levels -> next stricter
		{0.9, 3, 40},   // strictest level
		{0.99, 9, 15},  // above all levels -> last level
		{0.5, 2.5, 20}, // below all levels -> first level
	}
	for _, tc := range cases {
		if got := p.CandSize(tc.target, tc.d1); got != tc.want {
			t.Errorf("CandSize(%g, %g) = %d, want %d", tc.target, tc.d1, got, tc.want)
		}
	}
}

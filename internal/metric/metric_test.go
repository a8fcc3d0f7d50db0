package metric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestL1Known(t *testing.T) {
	d := L1{}
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0, 0}, Vector{0, 0}, 0},
		{Vector{1, 2, 3}, Vector{1, 2, 3}, 0},
		{Vector{0, 0}, Vector{3, 4}, 7},
		{Vector{-1, -2}, Vector{1, 2}, 6},
		{Vector{1.5}, Vector{-1.5}, 3},
	}
	for _, c := range cases {
		if got := d.Dist(c.a, c.b); !approxEqual(got, c.want, 1e-9) {
			t.Errorf("L1(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestL2Known(t *testing.T) {
	d := L2{}
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0, 0}, Vector{3, 4}, 5},
		{Vector{1, 1, 1}, Vector{1, 1, 1}, 0},
		{Vector{0}, Vector{2}, 2},
		{Vector{-3, 0}, Vector{0, 4}, 5},
	}
	for _, c := range cases {
		if got := d.Dist(c.a, c.b); !approxEqual(got, c.want, 1e-9) {
			t.Errorf("L2(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestChebyshevKnown(t *testing.T) {
	d := Chebyshev{}
	if got := d.Dist(Vector{1, 5, 2}, Vector{2, 1, 2}); got != 4 {
		t.Errorf("Linf = %g, want 4", got)
	}
	if got := d.Dist(Vector{0}, Vector{0}); got != 0 {
		t.Errorf("Linf identity = %g, want 0", got)
	}
}

func TestLpMatchesSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		a, b := randomVec(rng, 8), randomVec(rng, 8)
		if got, want := (Lp{P: 1}).Dist(a, b), (L1{}).Dist(a, b); !approxEqual(got, want, 1e-9) {
			t.Fatalf("Lp(1) = %g, L1 = %g", got, want)
		}
		if got, want := (Lp{P: 2}).Dist(a, b), (L2{}).Dist(a, b); !approxEqual(got, want, 1e-9) {
			t.Fatalf("Lp(2) = %g, L2 = %g", got, want)
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	(L1{}).Dist(Vector{1, 2}, Vector{1})
}

func TestLpSubOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on P < 1")
		}
	}()
	(Lp{P: 0.5}).Dist(Vector{1}, Vector{2})
}

func randomVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * 10)
	}
	return v
}

// checkPostulates verifies the four metric postulates on random triples.
func checkPostulates(t *testing.T, d Distance, dim int, gen func(*rand.Rand, int) Vector) {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, uint64(dim)))
	const eps = 1e-7
	for range 300 {
		a, b, c := gen(rng, dim), gen(rng, dim), gen(rng, dim)
		dab, dba := d.Dist(a, b), d.Dist(b, a)
		if dab < 0 {
			t.Fatalf("%s: negative distance %g", d.Name(), dab)
		}
		if !approxEqual(dab, dba, eps) {
			t.Fatalf("%s: asymmetric %g vs %g", d.Name(), dab, dba)
		}
		if got := d.Dist(a, a); got != 0 {
			t.Fatalf("%s: d(a,a) = %g, want 0", d.Name(), got)
		}
		dac, dcb := d.Dist(a, c), d.Dist(c, b)
		if dab > dac+dcb+eps*(1+dab) {
			t.Fatalf("%s: triangle inequality violated: d(a,b)=%g > d(a,c)+d(c,b)=%g",
				d.Name(), dab, dac+dcb)
		}
	}
}

func TestMetricPostulates(t *testing.T) {
	for _, tc := range []struct {
		d   Distance
		dim int
	}{
		{L1{}, 17},
		{L2{}, 96},
		{Chebyshev{}, 8},
		{Lp{P: 3}, 12},
		{Lp{P: 1.5}, 5},
	} {
		t.Run(tc.d.Name(), func(t *testing.T) {
			checkPostulates(t, tc.d, tc.dim, randomVec)
		})
	}
}

func TestCoPhIRMetricPostulates(t *testing.T) {
	d := NewCoPhIR()
	checkPostulates(t, d, CoPhIRDim, func(rng *rand.Rand, dim int) Vector {
		v := make(Vector, dim)
		for i := range v {
			v[i] = float32(rng.IntN(256))
		}
		return v
	})
}

func TestCoPhIRStructure(t *testing.T) {
	d := NewCoPhIR()
	if d.Dim() != CoPhIRDim {
		t.Fatalf("CoPhIR dim = %d, want %d", d.Dim(), CoPhIRDim)
	}
	total := 0
	for _, s := range d.Segments {
		total += s.Len
	}
	if total != CoPhIRDim {
		t.Fatalf("segments tile %d dims, want %d", total, CoPhIRDim)
	}
	// Distance decomposes as the weighted sum of segment distances.
	rng := rand.New(rand.NewPCG(7, 7))
	a, b := randomVec(rng, CoPhIRDim), randomVec(rng, CoPhIRDim)
	var want float64
	for _, s := range d.Segments {
		want += s.Weight * s.Inner.Dist(a[s.Offset:s.Offset+s.Len], b[s.Offset:s.Offset+s.Len])
	}
	if got := d.Dist(a, b); !approxEqual(got, want, 1e-9) {
		t.Fatalf("combined = %g, want %g", got, want)
	}
}

func TestCombinedRejectsGaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-contiguous segments")
		}
	}()
	NewCombined("bad", []Segment{
		{Name: "a", Offset: 0, Len: 4, Inner: L1{}, Weight: 1},
		{Name: "b", Offset: 5, Len: 4, Inner: L1{}, Weight: 1},
	})
}

func TestCombinedRejectsNonPositiveWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero weight")
		}
	}()
	NewCombined("bad", []Segment{{Name: "a", Offset: 0, Len: 4, Inner: L1{}, Weight: 0}})
}

func TestByName(t *testing.T) {
	for _, name := range []string{"L1", "L2", "Linf", "L3", "cophir", "cosine"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, d.Name())
		}
	}
	if _, err := ByName("hamming"); err == nil {
		t.Error("ByName(hamming) should fail")
	}
	if _, err := ByName("L0.5"); err == nil {
		t.Error("ByName(L0.5) should fail (not a metric)")
	}
}

func TestVectorCloneEqual(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal")
	}
	w[0] = 9
	if v.Equal(w) {
		t.Fatal("clone aliases original")
	}
	if v.Equal(Vector{1, 2}) {
		t.Fatal("different dims compare equal")
	}
}

// Property: L1 dominates L2 dominates Linf on the same pair, and all scale
// linearly under vector scaling.
func TestQuickNormOrdering(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		half := len(raw) / 2
		a, b := Vector(raw[:half]), Vector(raw[half:2*half])
		for i := range a {
			if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) ||
				math.IsNaN(float64(b[i])) || math.IsInf(float64(b[i]), 0) {
				return true
			}
			// Keep magnitudes sane so the comparison is numerically meaningful.
			a[i] = float32(math.Mod(float64(a[i]), 1e6))
			b[i] = float32(math.Mod(float64(b[i]), 1e6))
		}
		l1 := (L1{}).Dist(a, b)
		l2 := (L2{}).Dist(a, b)
		linf := (Chebyshev{}).Dist(a, b)
		return l1+1e-6 >= l2 && l2+1e-6 >= linf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

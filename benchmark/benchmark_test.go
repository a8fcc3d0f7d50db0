package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	logOut, diagOut = io.Discard, io.Discard
	os.Exit(m.Run())
}

// fingerprint is everything generate derives from the seed, in a comparable
// form.
func fingerprint(t *testing.T, s *spec, seed uint64) []any {
	t.Helper()
	in, err := generate(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	key, err := in.key.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return []any{in.objs, in.extra, in.order, key}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		tiny := s.tiny()
		tiny.extra = tiny.extraNeeded(1)
		a, b, c := fingerprint(t, tiny, 7), fingerprint(t, tiny, 7), fingerprint(t, tiny, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different inputs", s.name)
		}
		for i, part := range []string{"objects", "extra objects", "query order", "key"} {
			if reflect.DeepEqual(a[i], c[i]) {
				t.Errorf("%s: seeds 7 and 8 generated the same %s", s.name, part)
			}
		}
	}
}

func testOptions(t *testing.T, trace bool) options {
	dir := t.TempDir()
	return options{seed: 2012, seconds: 0.4, trace: trace, tiny: true, outDir: filepath.Join(dir, "out"), tmpDir: dir}
}

// TestTinySmoke runs every workload twice at the tiny scale: nothing may fail,
// every end-to-end metric must be there and non-zero, and the metrics that
// are counts of the seed's inputs must repeat exactly.
func TestTinySmoke(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			var runs [2]*result
			for i := range runs {
				res, err := runWorkload(s, testOptions(t, false))
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 || res.value("fail_ratio") != 0 {
					t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				for _, m := range endToEnd {
					if v := res.value(m.name); math.IsNaN(v) || v <= 0 {
						t.Errorf("%s = %v, want a positive number", m.name, v)
					}
				}
				runs[i] = res
			}
			for _, name := range []string{"recall_at_k", "comm_kb_per_query", "stored_bytes_per_entry"} {
				if a, b := runs[0].value(name), runs[1].value(name); a != b {
					t.Errorf("%s did not repeat: %v then %v", name, a, b)
				}
			}
		})
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestTracedSmoke runs the traced run of the workload with every layer in it
// and checks the trace's arithmetic and that every per-layer metric of
// BENCHMARK.json is reported, with its unit.
func TestTracedSmoke(t *testing.T) {
	t.Parallel()
	s, _ := specByName("chain_refine")
	o := testOptions(t, true)
	res, err := runWorkload(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	bj := readBenchmarkJSON(t)
	if len(res.Metrics) != len(bj.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bj.PerLayer))
	}
	for _, want := range bj.PerLayer {
		i := slices.IndexFunc(res.Metrics, func(m measurement) bool { return m.Name == want.Name })
		if i < 0 {
			t.Errorf("per-layer metric %s is not reported", want.Name)
		} else if res.Metrics[i].Unit != want.Unit {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", want.Name, res.Metrics[i].Unit, want.Unit)
		}
	}
	blob, err := os.ReadFile(filepath.Join(o.outDir, "trace_chain_refine.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans   []span
		Budgets map[string][]budgetRow
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("the trace holds no spans")
	}
	for root, rows := range file.Budgets {
		var pct float64
		for _, row := range rows {
			pct += row.PctFull
		}
		if math.Abs(pct-100) > 0.01 {
			t.Errorf("the %s budget sums to %.3f %%Full, want 100", root, pct)
		}
	}
	if _, ok := file.Budgets["gateway.http"]; !ok {
		t.Error("no budget for the serial gateway query")
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	// The driver gates a subset of the program's workloads (README.md,
	// "Departures"); the others are run by hand.
	for _, w := range bj.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs for %d s, the program by default for %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Bound != want.bound || (m.Better == "higher") != want.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
	}
}

// TestSelfTime checks span − covered child interval on a hand-built trace:
//
//	op      0 ........................ 100
//	  a        10 ....... 40
//	    a1        15 . 25
//	  b                30 ....... 70          (overlaps a by 10)
//	  c                                 90 ..... 120   (sticks out by 20)
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},
	}
	want := map[string]time.Duration{
		"op": 100 - (60 + 10), // children cover [10,70) and [90,100)
		"a":  30 - 10,
		"a1": 10,
		"b":  40,
		"c":  30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestTraceBudgetPartitionsRoot checks that spans laid out with child are cut
// to their parents, so that the budget's rows sum to the operation.
func TestTraceBudgetPartitionsRoot(t *testing.T) {
	tr := &trace{}
	for op := range 3 {
		root := tr.root(op, "op", 100)
		inner := tr.child(root, "inner", 20, 50)
		tr.child(inner, "leaf", 10, 70) // 30 too long for inner
		tr.child(root, "tail", 90, 40)  // 30 too long for op
	}
	rows, opUS := tr.budget("op")
	if math.Abs(opUS-0.1) > 1e-9 {
		t.Errorf("mean operation = %v us, want 0.1", opUS)
	}
	want := map[string]float64{"op": 40, "inner": 10, "leaf": 40, "tail": 10}
	var sum float64
	for _, row := range rows {
		sum += row.PctFull
		if row.PctFull != want[row.Layer] {
			t.Errorf("%s has %v %%Full, want %v", row.Layer, row.PctFull, want[row.Layer])
		}
	}
	if sum != 100 {
		t.Errorf("rows sum to %v %%Full, want 100", sum)
	}
	if tr.Clipped["leaf"] != 3*30 || tr.Clipped["tail"] != 3*30 {
		t.Errorf("clipped = %v, want 90 ns each for leaf and tail", tr.Clipped)
	}
}

// TestPercentile compares percentile with the definition applied to a sorted
// copy: the smallest sample with at least p of the samples at or below it.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 5, 99, 100, 101, 1000} {
		s := make(samples, n)
		for i := range s {
			s[i] = time.Duration(rng.IntN(50)) // many ties
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for _, p := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
			var oracle time.Duration
			for i, v := range sorted {
				if float64(i+1) >= p*float64(n) {
					oracle = v
					break
				}
			}
			if got := s.percentile(p); got != oracle {
				t.Errorf("n=%d p=%v: percentile = %v, oracle %v", n, p, got, oracle)
			}
		}
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedianOfPartsIgnoresOneStall(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = time.Millisecond
	}
	for i := 400; i < 420; i++ { // one stall, inside the third part of five
		s[i] = time.Second
	}
	if got := median(s.parts(0.99, 5)); got != 1 {
		t.Errorf("median of five parts' p99 = %v ms, want 1", got)
	}
	if got := s.percentile(0.99); got != time.Second {
		t.Errorf("whole-run p99 = %v, want 1s", got)
	}
}

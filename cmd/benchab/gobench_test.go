package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"simcloud/internal/bench"
)

// benchOutput is `go test -bench` text as it comes: headers, a benchmark's
// log, -count repeats, a custom unit, names with dashes and slashes, two
// packages, and PASS / ok lines.
const benchOutput = `goos: linux
goarch: amd64
pkg: simcloud/internal/mindex
cpu: Intel(R) Xeon(R) Processor
BenchmarkDiskRangeCold
    storage_bench_test.go:88: 8000 entries, 16 pivots
BenchmarkDiskRangeCold-2   	    1923	    262955 ns/op	        29.25 misses/op	   39168 B/op	      65 allocs/op
BenchmarkDiskRangeCold-2   	    1794	    295948 ns/op	        29.26 misses/op	   39194 B/op	      65 allocs/op
BenchmarkDiskRangeCold-2   	    2199	    305361 ns/op	        29.26 misses/op	   39154 B/op	      66 allocs/op
BenchmarkBulkBuild/memory/reference/chunks=15-2     5   30000000 ns/op
BenchmarkBulkBuild/memory/builder-2                 5   10000000 ns/op
BenchmarkBulkBuild/memory/builder-2                 5   12000000 ns/op
BenchmarkRefine         300   1833208 ns/op   412 allocs/op
--- BENCH: BenchmarkRefine
PASS
ok  	simcloud/internal/mindex	6.557s
goos: linux
goarch: amd64
pkg: simcloud/internal/core
BenchmarkRefine-4       300   1751707 ns/op   216880 B/op   412 allocs/op
ok  	simcloud/internal/core	2.101s
`

func mustParse(t *testing.T, text string) *goBench {
	t.Helper()
	b, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRead(t *testing.T, path string) *goBench {
	t.Helper()
	_, b, err := readInput(path)
	if err != nil || b == nil {
		t.Fatalf("%s: %v, go test -bench output %v", path, err, b != nil)
	}
	return b
}

func TestParseBench(t *testing.T) {
	b := mustParse(t, benchOutput)
	var got []string
	for _, k := range b.keys() {
		got = append(got, k.String())
	}
	want := []string{"BenchmarkBulkBuild/memory/builder-2", "BenchmarkBulkBuild/memory/reference/chunks=15-2",
		"BenchmarkDiskRangeCold-2", "BenchmarkRefine", "BenchmarkRefine-4"}
	if !slices.Equal(got, want) {
		t.Errorf("configurations %q, want %q", got, want)
	}
	k := key{"BenchmarkDiskRangeCold", 2}
	if v := b.runs[k]["allocs/op"]; !slices.Equal(v, []float64{65, 65, 66}) {
		t.Errorf("allocs/op runs %v, want the three -count repeats", v)
	}
	if v := b.runs[k]["misses/op"]; !slices.Equal(v, []float64{29.25, 29.26, 29.26}) {
		t.Errorf("custom unit misses/op runs %v", v)
	}
	if u := slices.Sorted(maps.Keys(b.runs[k])); !slices.Equal(u, []string{"B/op", "allocs/op", "misses/op", "ns/op"}) {
		t.Errorf("units %v", u)
	}
	if p := b.procs("BenchmarkRefine"); !slices.Equal(p, []int{1, 4}) {
		t.Errorf("BenchmarkRefine at procs %v, want [1 4]: no suffix is one proc", p)
	}
	if median(b.runs[key{"BenchmarkBulkBuild/memory/builder", 2}]["ns/op"]) != 11e6 {
		t.Error("the median of two runs is not their mean")
	}
	wantHeader := []string{"goos: linux", "goarch: amd64", "pkg: simcloud/internal/mindex",
		"cpu: Intel(R) Xeon(R) Processor", "pkg: simcloud/internal/core"}
	if !slices.Equal(b.header, wantHeader) {
		t.Errorf("header %q", b.header)
	}
	if _, err := parseBench(strings.NewReader("PASS\nok  \tsimcloud\t0.1s\n")); err == nil {
		t.Error("an output without a result parsed")
	}
}

func runGates(t *testing.T, f func(g *gates)) (*gates, string) {
	t.Helper()
	var out bytes.Buffer
	g := &gates{w: &out}
	f(g)
	return g, out.String()
}

func wantVerdict(t *testing.T, what string, g *gates, out string, checked, failed int, lines ...string) {
	t.Helper()
	if g.checked != checked || g.failed != failed {
		t.Errorf("%s: %d passed, %d failed; want %d, %d\n%s", what, g.checked, g.failed, checked, failed, out)
	}
	for _, l := range lines {
		if !strings.Contains(out, l) {
			t.Errorf("%s: no line %q in\n%s", what, l, out)
		}
	}
}

// TestScaleGate judges the committed RWMutex curve as a machine with eight
// cores would, and as one with two.
func TestScaleGate(t *testing.T) {
	rw := mustRead(t, "../../bench/BENCH_RWMUTEX_6.txt")
	g, out := runGates(t, func(g *gates) { g.scale(rw, 1.5, 8) })
	wantVerdict(t, "lock curve on 8 CPUs", g, out, 2, 2,
		"FAIL  BenchmarkConcurrentReadApprox: ns/op @8 procs / @1 procs = 3.73 (limit 1.50) — read path serializes as procs grow",
		"ok    BenchmarkConcurrentReadRange: ns/op @8 procs / @1 procs = 1.18 (limit 1.50)",
		"FAIL  BenchmarkConcurrentSearchUnderChurn: ns/op @8 procs / @1 procs = 1.80",
		"ok    BenchmarkConcurrentStatsUnderChurn: ns/op @8 procs / @1 procs = 0.59")

	g, out = runGates(t, func(g *gates) { g.scale(rw, 1.5, 2) })
	wantVerdict(t, "lock curve on 2 CPUs", g, out, 0, 0,
		"skip  BenchmarkConcurrentReadApprox: measured at procs [1 4 8] but this machine has 2 CPUs — no scaling point to judge",
		"note  scale gate: 4 families skipped")

	// Six cores: the comparison point is 4, the largest count they can run.
	g, out = runGates(t, func(g *gates) { g.scale(rw, 3.2, 6) })
	wantVerdict(t, "lock curve on 6 CPUs", g, out, 4, 0, "BenchmarkConcurrentReadApprox: ns/op @4 procs / @1 procs = 3.10 (limit 3.20)")

	single := mustRead(t, "../../bench/BENCH_BASELINE_15.txt")
	g, out = runGates(t, func(g *gates) { g.scale(single, 1.5, 8) })
	wantVerdict(t, "no multi-proc family", g, out, 0, 1, "FAIL  scale gate: no benchmark family measured at multiple proc counts")
}

// TestAllocGate runs the alloc gate as CI runs it, each committed baseline
// judging itself, then on runs that must fail.
func TestAllocGate(t *testing.T) {
	for _, tc := range []struct {
		file    string
		slack   float64
		exclude string
		checked int
	}{
		{"BENCH_BASELINE_9.txt", 1.5, "", 8},
		{"BENCH_BASELINE_40.txt", 1.15, "", 4},
		{"BENCH_BASELINE_6.txt", 1.5, "Churn", 6},
		{"BENCH_BASELINE_15.txt", 1.5, "", 2},
	} {
		b := mustRead(t, filepath.Join("../../bench", tc.file))
		var exclude *regexp.Regexp
		if tc.exclude != "" {
			exclude = regexp.MustCompile(tc.exclude)
		}
		g, out := runGates(t, func(g *gates) { g.allocs(b, b, tc.slack, exclude) })
		wantVerdict(t, tc.file, g, out, tc.checked, 0)
	}

	b15 := mustRead(t, "../../bench/BENCH_BASELINE_15.txt")
	// The baseline recorded at four procs, the run at two: both rows fail by
	// name, and nothing is left to match.
	four := mustParse(t, strings.ReplaceAll(string(mustFile(t, "../../bench/BENCH_BASELINE_15.txt")), "-2 ", "-4 "))
	g, out := runGates(t, func(g *gates) { g.allocs(b15, four, 1.5, nil) })
	wantVerdict(t, "baseline at -4", g, out, 0, 3,
		"FAIL  BenchmarkCoordinatorCombine-4: in the baseline, but this run measured it only at procs [2]",
		"FAIL  BenchmarkRefine-4: in the baseline, but this run measured it only at procs [2]",
		"FAIL  allocs/op gate: no benchmark present in both current run and baseline")

	// One row still matches: the other fails all the same.
	half := mustParse(t, strings.ReplaceAll(string(mustFile(t, "../../bench/BENCH_BASELINE_15.txt")), "Refine-2 ", "Refine-4 "))
	g, out = runGates(t, func(g *gates) { g.allocs(b15, half, 1.5, nil) })
	wantVerdict(t, "one row at -4", g, out, 1, 1,
		"ok    BenchmarkCoordinatorCombine-2: 2 allocs/op vs baseline 2 (limit 4)",
		"FAIL  BenchmarkRefine-4: in the baseline, but this run measured it only at procs [2]")

	// A benchmark the run did not measure at all is not its business.
	g, out = runGates(t, func(g *gates) { g.allocs(mustParse(t, benchOutput), b15, 1.5, nil) })
	wantVerdict(t, "other benchmarks", g, out, 0, 2, "FAIL  BenchmarkRefine-2: in the baseline, but this run measured it only at procs [1 4]")

	// Doubled allocations fail every row.
	b9 := mustRead(t, "../../bench/BENCH_BASELINE_9.txt")
	doubled := mustParse(t, regexp.MustCompile(`\d+ allocs/op`).ReplaceAllStringFunc(string(mustFile(t, "../../bench/BENCH_BASELINE_9.txt")), func(m string) string {
		n, _ := strconv.Atoi(strings.Fields(m)[0])
		return strconv.Itoa(2*n) + " allocs/op"
	}))
	g, out = runGates(t, func(g *gates) { g.allocs(doubled, b9, 1.5, nil) })
	wantVerdict(t, "allocations doubled", g, out, 0, 8,
		"FAIL  BenchmarkBulkLoad/engine/memory/builder/shards=1: 10234 allocs/op vs baseline 5117 (limit 7676)")

	// The +2 floor: 2 → 4 passes at any slack, 2 → 5 does not.
	small := func(allocs string) *goBench {
		return mustParse(t, "BenchmarkX-2 10 100 ns/op "+allocs+" allocs/op\n")
	}
	g, out = runGates(t, func(g *gates) { g.allocs(small("4"), small("2"), 1.1, nil) })
	wantVerdict(t, "+2 floor", g, out, 1, 0)
	g, out = runGates(t, func(g *gates) { g.allocs(small("5"), small("2"), 1.1, nil) })
	wantVerdict(t, "past the floor", g, out, 0, 1, "FAIL  BenchmarkX-2: 5 allocs/op vs baseline 2 (limit 4)")

	// Excluded rows are neither checked nor failed.
	b6 := mustRead(t, "../../bench/BENCH_BASELINE_6.txt")
	g, out = runGates(t, func(g *gates) { g.allocs(b6, b6, 1.5, regexp.MustCompile(".")) })
	wantVerdict(t, "all excluded", g, out, 0, 1, "FAIL  allocs/op gate: no benchmark present")
}

func mustFile(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSpeedupGate(t *testing.T) {
	b := mustParse(t, benchOutput)
	ref, builder := regexp.MustCompile("BulkBuild/memory/reference/chunks=15"), regexp.MustCompile("BulkBuild/memory/builder")
	g, out := runGates(t, func(g *gates) { g.speedup(b, ref, builder, 2.2) })
	wantVerdict(t, "3x over a 2.2 floor", g, out, 1, 0,
		"ok    speedup: BenchmarkBulkBuild/memory/reference/chunks=15-2 (30000000 ns/op) / BenchmarkBulkBuild/memory/builder-2 (11000000 ns/op) = 2.73x (min 2.20x)")
	g, out = runGates(t, func(g *gates) { g.speedup(b, ref, builder, 3) })
	wantVerdict(t, "below a 3 floor", g, out, 0, 1, "— below the floor")
	none := regexp.MustCompile("NoSuchBenchmark")
	g, out = runGates(t, func(g *gates) { g.speedup(b, none, builder, 2.2) })
	wantVerdict(t, "base matches nothing", g, out, 0, 1, `FAIL  speedup gate: -speedup-base "NoSuchBenchmark" matched no ns/op results`)
	g, out = runGates(t, func(g *gates) { g.speedup(b, ref, none, 2.2) })
	wantVerdict(t, "new matches nothing", g, out, 0, 1, `FAIL  speedup gate: -speedup-new "NoSuchBenchmark" matched no ns/op results`)
}

// TestRunBench drives the gates as the command does: a failed check is an
// error. Then it records two runs into one file.
func TestRunBench(t *testing.T) {
	b15 := mustRead(t, "../../bench/BENCH_BASELINE_15.txt")
	var out bytes.Buffer
	g := gateFlags{allocSlack: 1.5, baseline: "../../bench/BENCH_BASELINE_15.txt"}
	if err := runBench(&out, b15, "", g); err != nil || !strings.Contains(out.String(), "benchab: all 2 checks passed") {
		t.Errorf("BENCH_BASELINE_15 against itself: %v\n%s", err, out.String())
	}
	g.baseline = "../../bench/BENCH_BASELINE_9.txt"
	if err := runBench(&out, b15, "", g); err == nil || err.Error() != "1 of 1 checks failed" {
		t.Errorf("a baseline that matches nothing: %v", err)
	}
	g.baseline = "../../bench/history/BENCH_34.json"
	if err := runBench(&out, b15, "", g); err == nil {
		t.Error("a history file taken as a baseline")
	}

	out.Reset()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := runBench(&out, b15, path, gateFlags{}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(strings.Split(out.String(), "\n"), func(l string) bool {
		return strings.Join(strings.Fields(l), " ") == "BenchmarkRefine-2 allocs/op 412 412–412 5"
	}) {
		t.Errorf("render:\n%s", out.String())
	}
	if err := runBench(&out, mustParse(t, benchOutput), path, gateFlags{}); err != nil {
		t.Fatal(err)
	}
	var rows []bench.HistoryRow
	if err := json.Unmarshal(mustFile(t, path), &rows); err != nil {
		t.Fatal(err)
	}
	// The rows of other benchmarks stay: the first run's 7 beside the
	// second's 11.
	if len(rows) != 18 || !slices.ContainsFunc(rows, func(r bench.HistoryRow) bool { return r.Name == "BenchmarkCoordinatorCombine-2" }) {
		t.Errorf("%d rows after two runs, want 18", len(rows))
	}
}

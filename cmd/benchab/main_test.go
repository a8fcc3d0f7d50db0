package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"simcloud/internal/bench"
)

// TestRecordedHistory re-renders BENCH_34.json, whose claim was worked out
// by hand: its medians, its quartiles and its win counts must come out of
// the recorded runs again.
func TestRecordedHistory(t *testing.T) {
	specs, order, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := readInput("../../bench/history/BENCH_34.json")
	if err != nil {
		t.Fatal(err)
	}
	find := func(label, metric string) comparison {
		t.Helper()
		for _, s := range all {
			if s.label != label {
				continue
			}
			for _, c := range compareAll(s, specs, order) {
				if c.metric == metric {
					return c
				}
			}
		}
		t.Fatalf("no %s/%s in the history", label, metric)
		return comparison{}
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%s: %.4f, recorded %.4f", what, got, want)
		}
	}

	c := find("chain_refine", "query_sat_qps")
	near("base median", c.base.med, 474.94)
	near("change median", c.change.med, 581.77)
	if c.wins != 10 || c.pairs != 10 || !c.gain || c.boundVerdict != "within" {
		t.Errorf("chain_refine query_sat_qps: %d/%d wins, gain %v, bound %q; recorded 10/10, a gain", c.wins, c.pairs, c.gain, c.boundVerdict)
	}
	near("sign p of 10/10", c.p, 2.0/1024)

	c = find("chain_refine_seed3434", "query_sat_qps")
	if c.wins != 5 || c.pairs != 6 {
		t.Errorf("chain_refine_seed3434 query_sat_qps: %d/%d wins, recorded 5/6", c.wins, c.pairs)
	}
	if c.gain {
		t.Error("5 wins of 6 is below nine tenths, yet reads as a gain")
	}

	// The recorded quartiles were taken at (n+1)p of the sorted runs.
	c = find("chain_refine", "setup_s")
	near("setup_s q1", c.base.q1, 1.0293)
	near("setup_s q3", c.base.q3, 1.10484)

	c = find("chain_refine", "comm_kb_per_query")
	if !c.identical || c.ties != 10 {
		t.Errorf("comm_kb_per_query: identical %v, %d ties; every pair read the same", c.identical, c.ties)
	}
}

// TestRowsRoundTrip writes a series as history rows and reads it back, and
// then a `go test -bench` output into the same file: its rows carry every
// run, and reading the file gives back the series alone.
func TestRowsRoundTrip(t *testing.T) {
	specs, order, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	s := newSeries("exact_disk", "a note")
	for i := range 10 {
		v := 300 + float64(i%3)
		s.add(sideBase, "query_sat_qps", "q/s", v)
		s.add(sideChange, "query_sat_qps", "q/s", v*1.5+float64(i))
		s.failed[0] = append(s.failed[0], 0)
		s.failed[1] = append(s.failed[1], i%2)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := writeRows(path, []string{"exact_disk"}, rows(s, compareAll(s, specs, order))); err != nil {
		t.Fatal(err)
	}
	gb, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second write replaces the first's rows
		if err := writeRows(path, nil, gb.rows()); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var written []bench.HistoryRow
	if err := json.Unmarshal(blob, &written); err != nil {
		t.Fatal(err)
	}
	byName := map[string]key{}
	for _, k := range gb.keys() {
		byName[k.String()] = k
	}
	benchRows := 0
	for _, r := range written {
		k, ok := byName[r.Name]
		if !ok {
			continue
		}
		benchRows++
		var runs []float64
		for _, f := range strings.Fields(runsRE.FindStringSubmatch(r.Extra)[1]) {
			v, _ := strconv.ParseFloat(f, 64)
			runs = append(runs, v)
		}
		if want := gb.runs[k][r.Unit]; !slices.Equal(runs, want) || r.Value != median(want) {
			t.Errorf("%s %s: %g of runs %v, parsed %v", r.Name, r.Unit, r.Value, runs, want)
		}
	}
	if benchRows != 11 {
		t.Errorf("%d rows of the go test -bench output, want one per benchmark and unit, 11", benchRows)
	}
	back, _, err := readInput(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].label != "exact_disk" || back[0].note != "a note" {
		t.Fatalf("read back %d series", len(back))
	}
	b := back[0]
	if !slices.Equal(b.runs[sideBase]["query_sat_qps"], s.runs[sideBase]["query_sat_qps"]) ||
		!slices.Equal(b.runs[sideChange]["query_sat_qps"], s.runs[sideChange]["query_sat_qps"]) {
		t.Errorf("runs %v, wrote %v", b.runs, s.runs)
	}
	if !slices.Equal(b.failed[1], s.failed[1]) {
		t.Errorf("failed operations %v, wrote %v", b.failed[1], s.failed[1])
	}
	c := compareAll(b, specs, order)[0]
	if c.wins != 10 || !c.gain {
		t.Errorf("%d wins, gain %v for a change 1.5x better in every pair", c.wins, c.gain)
	}
	// Three pairs are too few to claim anything, however they read.
	for side := range b.runs {
		b.runs[side]["query_sat_qps"] = b.runs[side]["query_sat_qps"][:3]
	}
	if c := compareAll(b, specs, order)[0]; c.gain {
		t.Error("3 pairs read as a gain")
	}
}

func TestSignP(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signP(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("signP(%d, %d) = %g, want %g", tc.wins, tc.losses, got, tc.want)
		}
	}
}

// TestHodgesLehmann works the shift out by hand on small series: the median
// of every change−base difference, as a fraction of the base median.
func TestHodgesLehmann(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         float64
	}{
		// Differences 9 8 7 / 10 9 8 / 11 10 9: median 9, base median 2.
		{"shifted", []float64{1, 2, 3}, []float64{10, 11, 12}, 4.5},
		// One wild change run moves the sample medians' gap but not the
		// shift much: differences −1 −2 −3 / 0 −1 −2 / 97 96 95, median −1.
		{"outlier", []float64{1, 2, 3}, []float64{0, 1, 98}, -0.5},
		// Even count: differences 1 0 / 2 1, the median of four is 1.
		{"even", []float64{2, 3}, []float64{3, 4}, 1.0 / 2.5},
		{"no shift", []float64{5, 5, 5}, []float64{5, 5}, 0},
		{"zero base", []float64{0, 0}, []float64{1, 2}, 0},
		{"empty", nil, []float64{1}, 0},
	} {
		med := 0.0
		if len(tc.base) > 0 {
			med = summarize(tc.base).med
		}
		if got := hodgesLehmann(tc.base, tc.change, med); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: shift %g, want %g", tc.name, got, tc.want)
		}
	}
	// compare carries it for every metric.
	c := compare("m", "u", []float64{1, 2, 3}, []float64{10, 11, 12}, metricSpec{Better: "higher"}, false)
	if c.hl != 4.5 {
		t.Errorf("compare: shift %g, want 4.5", c.hl)
	}
}

// TestExtract checks out HEAD the way a run checks out its base.
func TestExtract(t *testing.T) {
	if err := exec.Command("git", "-C", "../..", "rev-parse", "HEAD").Run(); err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	dir := t.TempDir()
	if err := extract("../..", "HEAD", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "benchmark", "run.sh")); err != nil {
		t.Fatalf("no benchmark/run.sh in the extracted tree: %v", err)
	}
	if err := extract("../..", "no-such-revision", t.TempDir()); err == nil {
		t.Error("extracting a revision that does not exist succeeded")
	}
}

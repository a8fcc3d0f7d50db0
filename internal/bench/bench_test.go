package bench

import (
	"strings"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
)

// small returns laptop-test-scale options.
func small() Options {
	return Options{CoPhIRScale: 600, Queries: 6, K: 5, Seed: 7, BulkSize: 500}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("row one", "1", "2")
	tab.AddRow("r2", "333", "4")
	s := tab.String()
	for _, want := range []string{"Table X", "demo", "Measure", "row one", "333"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := kb(25810); got != "25.81" {
		t.Fatalf("kb = %q", got)
	}
	if got := pct(59.8); got != "59.80" {
		t.Fatalf("pct = %q", got)
	}
}

func TestTable1And2(t *testing.T) {
	o := small()
	t1, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 3 {
		t.Fatalf("table 1 has %d rows", len(t1.Rows))
	}
	if t1.Rows[0].Cells[0] != "2882" {
		t.Fatalf("YEAST size cell = %q", t1.Rows[0].Cells[0])
	}
	t2, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Rows[2].Cells[1] != "disk" {
		t.Fatalf("CoPhIR storage = %q", t2.Rows[2].Cells[1])
	}
	if t2.Rows[0].Cells[2] != "30" || t2.Rows[1].Cells[2] != "50" || t2.Rows[2].Cells[2] != "100" {
		t.Fatalf("pivot columns wrong: %+v", t2.Rows)
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("YEAST"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("bogus"); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestConstructionEncryptedVsPlain(t *testing.T) {
	o := small()
	spec, err := SpecByName("YEAST")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Load(o)
	encCosts, err := Construction(ds, spec, o, true)
	if err != nil {
		t.Fatal(err)
	}
	plainCosts, err := Construction(ds, spec, o, false)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: encryption happens only in the encrypted variant, and its
	// client does the distance computations while the plain server does.
	if encCosts.EncryptTime <= 0 {
		t.Fatal("no encryption time in encrypted construction")
	}
	if plainCosts.EncryptTime != 0 {
		t.Fatal("encryption time in plain construction")
	}
	if encCosts.ClientTime <= plainCosts.ClientTime {
		t.Fatalf("encrypted client %v not above plain client %v",
			encCosts.ClientTime, plainCosts.ClientTime)
	}
	if plainCosts.DistCompTime <= 0 {
		t.Fatal("plain construction reported no server distance time")
	}
}

func TestSearchSweepShapesYeast(t *testing.T) {
	o := small()
	res, err := SearchSweep(o, "YEAST", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d sweep points", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Costs.CommBytes() <= res[i-1].Costs.CommBytes() {
			t.Fatalf("communication cost not increasing with candidate size: %d then %d",
				res[i-1].Costs.CommBytes(), res[i].Costs.CommBytes())
		}
	}
	first, last := res[0], res[len(res)-1]
	if last.Recall < first.Recall-5 {
		t.Fatalf("recall did not improve: %g%% -> %g%%", first.Recall, last.Recall)
	}
	if last.Recall < 60 {
		t.Fatalf("recall at candSize %d only %g%%", last.CandSize, last.Recall)
	}
	// Candidate counts transferred must match the requested sizes.
	for _, r := range res {
		if r.Costs.Candidates != int64(r.CandSize) {
			t.Fatalf("candSize %d transferred %d candidates", r.CandSize, r.Costs.Candidates)
		}
	}
}

func TestSearchSweepPlainCommConstant(t *testing.T) {
	o := small()
	res, err := SearchSweep(o, "YEAST", false)
	if err != nil {
		t.Fatal(err)
	}
	base := res[0].Costs.CommBytes()
	for _, r := range res {
		if r.Costs.CommBytes() != base {
			t.Fatalf("plain communication cost varies: %d vs %d", base, r.Costs.CommBytes())
		}
	}
	// Recall must match the encrypted variant: same candidates, same
	// refinement — only where the work happens differs.
	enc, err := SearchSweep(o, "YEAST", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Recall != enc[i].Recall {
			t.Fatalf("candSize %d: plain recall %g != encrypted recall %g",
				res[i].CandSize, res[i].Recall, enc[i].Recall)
		}
	}
}

func TestSearchSweepDiskBackedCoPhIR(t *testing.T) {
	o := small()
	o.Queries = 3
	res, err := SearchSweep(o, "CoPhIR", true)
	if err != nil {
		t.Fatal(err)
	}
	// With only 600 objects every candidate size ≥ 600 covers everything.
	last := res[len(res)-1]
	if last.Recall != 100 {
		t.Fatalf("full-coverage recall = %g%%", last.Recall)
	}
}

func TestTable9SweepTechniques(t *testing.T) {
	o := small()
	o.Queries = 8
	res, err := Table9Sweep(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table9Result{}
	for _, r := range res {
		byName[r.Technique] = r
	}
	for _, name := range []string{"EncMIndex", "EHI", "FDH", "Trivial"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("technique %s missing from sweep", name)
		}
	}
	// Trivial and EHI are exact: recall 100. FDH and the single-cell
	// M-Index are approximate but must find most 1-NNs.
	if byName["Trivial"].Recall != 100 {
		t.Fatalf("trivial recall = %g", byName["Trivial"].Recall)
	}
	if byName["EHI"].Recall != 100 {
		t.Fatalf("EHI recall = %g", byName["EHI"].Recall)
	}
	// Cost ordering claims of the paper: the Encrypted M-Index beats the
	// others on communication cost.
	m := byName["EncMIndex"].Costs.CommBytes()
	for _, other := range []string{"EHI", "Trivial"} {
		if byName[other].Costs.CommBytes() <= m {
			t.Fatalf("%s comm bytes %d not above EncMIndex %d",
				other, byName[other].Costs.CommBytes(), m)
		}
	}
	if byName["EncMIndex"].Costs.RoundTrips != 1 {
		t.Fatalf("EncMIndex used %d round trips", byName["EncMIndex"].Costs.RoundTrips)
	}
	if byName["EHI"].Costs.RoundTrips <= 1 {
		t.Fatalf("EHI used %d round trips", byName["EHI"].Costs.RoundTrips)
	}
}

func TestGroundTruth(t *testing.T) {
	ds := dataset.Clustered(5, 50, 3, 2, metric.L1{})
	queries := ds.Objects[:2]
	gt := GroundTruth(ds, ds.Objects, queries, 3)
	if len(gt) != 2 {
		t.Fatalf("%d ground truths", len(gt))
	}
	for qi, ids := range gt {
		if len(ids) != 3 {
			t.Fatalf("query %d: %d neighbors", qi, len(ids))
		}
		// The query object itself is indexed, so it must be its own 1-NN.
		if ids[0] != queries[qi].ID {
			t.Fatalf("query %d: 1-NN is %d, want itself (%d)", qi, ids[0], queries[qi].ID)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("42", small()); err == nil {
		t.Fatal("unknown table id accepted")
	}
	tab, err := Run("2", small())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Table 2" {
		t.Fatalf("dispatched to %s", tab.ID)
	}
}

func TestPreciseSweepStrategies(t *testing.T) {
	o := small()
	o.Queries = 6
	o.K = 10
	res, err := PreciseSweep(o, "YEAST", 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d strategies", len(res))
	}
	byName := map[string]PreciseResult{}
	for _, r := range res {
		byName[r.Strategy] = r
	}
	// Both precise strategies must be exact; the approximate one may not be.
	if r := byName["PreciseKNN"]; r.Recall != 100 {
		t.Fatalf("precise kNN recall = %g", r.Recall)
	}
	if r := byName["PreciseRange(rk)"]; r.Recall != 100 {
		t.Fatalf("precise range recall = %g", r.Recall)
	}
	// Precise kNN pays one or two round trips: the bound-ordered first page,
	// then the range ρk after it unless the first page settled the query.
	if rt := byName["PreciseKNN"].RoundTrips; rt < 1 || rt > 2 {
		t.Fatalf("precise kNN used %.2f round trips per query", rt)
	}
	if byName["ApproxKNN(300)"].Costs.RoundTrips != 1 {
		t.Fatalf("approx kNN used %d round trips", byName["ApproxKNN(300)"].Costs.RoundTrips)
	}
	// Exactness costs more communication than the approximate pass alone.
	if byName["PreciseKNN"].Costs.CommBytes() <= byName["ApproxKNN(300)"].Costs.CommBytes() {
		t.Fatal("precise kNN communication not above approximate")
	}
	// The dispatcher knows the new table.
	tab, err := Run("precise", o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Table P" {
		t.Fatalf("dispatched to %s", tab.ID)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo", Columns: []string{"150", "300"}}
	tab.AddRow("Recall [%]", "59.80", "82.87")
	tab.AddRow(`weird,"label`, "1", "2")
	var b strings.Builder
	tab.RenderCSV(&b)
	out := b.String()
	if !strings.Contains(out, "measure,150,300") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "Recall [%],59.80,82.87") {
		t.Fatalf("csv row missing:\n%s", out)
	}
	if !strings.Contains(out, `"weird,""label"`) {
		t.Fatalf("csv escaping broken:\n%s", out)
	}
}

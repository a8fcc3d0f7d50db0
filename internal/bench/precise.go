package bench

import (
	"fmt"
	"sort"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/stats"
)

// The paper's Section 6 leaves "analyzing the precise range and k-NN
// evaluation strategies of Encrypted M-Index in comparison to the
// approximate strategy" as future work. This experiment performs that
// analysis: the same queries are evaluated with the approximate k-NN
// (single round trip, tunable candidate set, recall < 100%), the precise
// k-NN (a bound-ordered first page + the range ρk resumed after it — one or
// two round trips, exact), and the precise range query at the true k-th
// neighbor radius (one round trip, exact, needs stored distance vectors for
// server-side pivot filtering).

// PreciseResult is the measured outcome of one evaluation strategy.
type PreciseResult struct {
	Strategy string
	Costs    stats.Costs
	Recall   float64
	// RoundTrips is the mean per query; Costs.RoundTrips truncates it.
	RoundTrips float64
}

// PreciseSweep compares the three evaluation strategies on one data set.
// The index is built with the precise strategy (stored distance vectors),
// which all three can use.
func PreciseSweep(o Options, specName string, candSize int) ([]PreciseResult, error) {
	o = o.withDefaults()
	s, err := SpecByName(specName)
	if err != nil {
		return nil, err
	}
	ds := s.Load(o)
	queries, indexed := dataset.SampleQueries(ds, o.Queries, o.Seed, false)

	cloud, err := NewEncryptedCloud(ds, s.Cfg, o.Seed, core.Options{StoreDists: true})
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	cloud.Timeout = o.Timeout
	o.logf("precise: inserting %d objects (precise strategy)...", len(indexed))
	if _, err := cloud.InsertAll(indexed, o.BulkSize); err != nil {
		return nil, err
	}
	o.logf("precise: computing ground truth...")
	exactIDs := GroundTruth(ds, indexed, queries, o.K)
	// The true k-th neighbor radius per query drives the precise range run.
	radii := make([]float64, len(queries))
	for qi, q := range queries {
		dists := make([]float64, len(indexed))
		for i, obj := range indexed {
			dists[i] = ds.Dist.Dist(q.Vec, obj.Vec)
		}
		sort.Float64s(dists)
		radii[qi] = dists[min(o.K, len(dists))-1]
	}

	type strategy struct {
		name string
		run  func(qi int) ([]core.Result, stats.Costs, error)
	}
	strategies := []strategy{
		{fmt.Sprintf("ApproxKNN(%d)", candSize), func(qi int) ([]core.Result, stats.Costs, error) {
			ctx, cancel := o.opCtx()
			defer cancel()
			return cloud.Enc.Search(ctx, core.Query{Kind: core.KindApproxKNN, Vec: queries[qi].Vec, K: o.K, CandSize: candSize})
		}},
		{"PreciseKNN", func(qi int) ([]core.Result, stats.Costs, error) {
			ctx, cancel := o.opCtx()
			defer cancel()
			return cloud.Enc.Search(ctx, core.Query{Kind: core.KindKNN, Vec: queries[qi].Vec, K: o.K, CandSize: candSize})
		}},
		{"PreciseRange(rk)", func(qi int) ([]core.Result, stats.Costs, error) {
			ctx, cancel := o.opCtx()
			defer cancel()
			return cloud.Enc.Search(ctx, core.Query{Kind: core.KindRange, Vec: queries[qi].Vec, Radius: radii[qi]})
		}},
	}

	var out []PreciseResult
	for _, st := range strategies {
		o.logf("precise: strategy %s...", st.name)
		var sum stats.Costs
		var recallSum float64
		for qi := range queries {
			res, costs, err := st.run(qi)
			if err != nil {
				return nil, fmt.Errorf("%s query %d: %w", st.name, qi, err)
			}
			ids := make([]uint64, 0, len(res))
			for _, r := range res {
				ids = append(ids, r.ID)
			}
			recallSum += stats.Recall(ids, exactIDs[qi])
			sum.Accumulate(costs)
		}
		out = append(out, PreciseResult{
			Strategy:   st.name,
			Costs:      sum.DividedBy(len(queries)),
			Recall:     recallSum / float64(len(queries)),
			RoundTrips: float64(sum.RoundTrips) / float64(len(queries)),
		})
	}
	return out, nil
}

// PreciseTable renders the precise-vs-approximate analysis.
func PreciseTable(o Options, specName string, candSize int) (*Table, error) {
	o = o.withDefaults()
	results, err := PreciseSweep(o, specName, candSize)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "Table P",
		Title: fmt.Sprintf("Precise vs. approximate evaluation strategies, Encrypted M-Index (%s, k=%d) — the paper's §6 future-work analysis",
			specName, o.K),
	}
	for _, r := range results {
		t.Columns = append(t.Columns, r.Strategy)
	}
	cells := func(get func(PreciseResult) string) []string {
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = get(r)
		}
		return out
	}
	t.AddRow("Client time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.ClientTime) })...)
	t.AddRow("Decryption time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.DecryptTime) })...)
	t.AddRow("Dist. comp. time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.DistCompTime) })...)
	t.AddRow("Server time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.ServerTime) })...)
	t.AddRow("Communication time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.CommTime) })...)
	t.AddRow("Overall time [ms]", cells(func(r PreciseResult) string { return millis(r.Costs.Overall) })...)
	t.AddRow("Recall [%]", cells(func(r PreciseResult) string { return pct(r.Recall) })...)
	t.AddRow("Communication cost [kB]", cells(func(r PreciseResult) string { return kb(r.Costs.CommBytes()) })...)
	t.AddRow("Round trips", cells(func(r PreciseResult) string { return fmt.Sprintf("%.2f", r.RoundTrips) })...)
	t.AddRow("Candidates", cells(func(r PreciseResult) string { return fmt.Sprintf("%d", r.Costs.Candidates) })...)
	return t, nil
}

package core

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/server"
)

// The k-means family is an M-Index configuration. These tests hold it to
// the contract of the flat cell table it replaced, and serve it remotely.

// flatCells is the flat cell table's contract, kept as a test oracle: a
// query visits cells by (transformed centroid distance, cell index); a
// cell's candidates are its live entries in arrival order, each with the
// cell's distance as promise and [cell] as prefix.
type flatCells struct {
	key   *secret.Key
	cells [][]uint64 // live IDs per cell, in arrival order
}

func newFlatCells(key *secret.Key) *flatCells {
	return &flatCells{key: key, cells: make([][]uint64, key.Pivots().N())}
}

func (f *flatCells) insert(objs []metric.Object) {
	for _, o := range objs {
		j := pivot.Permutation(f.key.Pivots().Distances(o.Vec))[0]
		f.cells[j] = append(f.cells[j], o.ID)
	}
}

func (f *flatCells) delete(objs []metric.Object) {
	for _, o := range objs {
		for j := range f.cells {
			f.cells[j] = slices.DeleteFunc(f.cells[j], func(id uint64) bool { return id == o.ID })
		}
	}
}

// stream returns the reference candidates for query vector q: the whole
// first non-empty cell when firstCell, else the first candSize of the
// promise-ordered stream.
func (f *flatCells) stream(q metric.Vector, candSize int, firstCell bool) []mindex.RankedCandidate {
	tq := f.key.TransformDists(f.key.Pivots().Distances(q))
	order := make([]int32, len(tq))
	for j := range order {
		order[j] = int32(j)
	}
	sort.SliceStable(order, func(a, b int) bool { return tq[order[a]] < tq[order[b]] })
	var out []mindex.RankedCandidate
	for _, j := range order {
		for _, id := range f.cells[j] {
			out = append(out, mindex.RankedCandidate{Entry: mindex.Entry{ID: id}, Promise: tq[j], Prefix: []int32{j}})
		}
		if firstCell && len(out) > 0 {
			return out
		}
	}
	return out[:min(candSize, len(out))]
}

// checkAgainstFlatCells compares the family engine's approximate and
// first-cell streams with the reference, candidate for candidate: ID,
// promise bits and prefix.
func checkAgainstFlatCells(t *testing.T, stage string, c *DirectClient, ref *flatCells, queries []metric.Object) {
	t.Helper()
	live := c.Engine().Size()
	for qi, q := range queries {
		qDists := c.Key().Pivots().Distances(q.Vec)
		for _, cs := range []int{1, 10, 77, 400, live} {
			got, err := c.rankedCandidates(c.wireQuery(Query{Kind: KindApproxKNN, CandSize: cs}, qDists))
			if err != nil {
				t.Fatal(err)
			}
			diffStreams(t, stage, qi, "approx", cs, got, ref.stream(q.Vec, cs, false))
		}
		got, err := c.rankedCandidates(c.wireQuery(Query{Kind: KindFirstCell}, qDists))
		if err != nil {
			t.Fatal(err)
		}
		diffStreams(t, stage, qi, "first-cell", 0, got, ref.stream(q.Vec, 0, true))
	}
}

func diffStreams(t *testing.T, stage string, qi int, kind string, cs int, got, want []mindex.RankedCandidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: query %d %s (cand %d): %d candidates, reference %d", stage, qi, kind, cs, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Entry.ID != w.Entry.ID || math.Float64bits(g.Promise) != math.Float64bits(w.Promise) || !slices.Equal(g.Prefix, w.Prefix) {
			t.Fatalf("%s: query %d %s (cand %d) position %d: (%d, %g, %v), reference (%d, %g, %v)",
				stage, qi, kind, cs, i, g.Entry.ID, g.Promise, g.Prefix, w.Entry.ID, w.Promise, w.Prefix)
		}
	}
}

// TestKMeansMatchesFlatCellReference: through insert (bulk and
// incremental), delete, re-insert of deleted IDs, Compact and — on disk —
// snapshot restore plus further inserts, the family's engine emits exactly
// the flat cell table's candidate streams, with and without the key's
// distance transform.
func TestKMeansMatchesFlatCellReference(t *testing.T) {
	ds := dataset.Clustered(2040, 1500, 8, 12, metric.L2{})
	queries, rest := dataset.SampleQueries(ds, 20, 2040, true)
	m, err := kmeans.Train(kmeans.TrainConfig{K: 12, Seed: 2040, Dist: ds.Dist}, rest)
	if err != nil {
		t.Fatal(err)
	}
	for _, storage := range []mindex.StorageKind{mindex.StorageMemory, mindex.StorageDisk} {
		for _, transformed := range []bool{false, true} {
			name := storage.String()
			if transformed {
				name += "-transform"
			}
			t.Run(name, func(t *testing.T) {
				key, err := secret.Generate(m.PivotSet(), secret.ModeCTRHMAC)
				if err != nil {
					t.Fatal(err)
				}
				if transformed {
					var sample []float64
					for i := 0; i < len(rest); i += 5 {
						sample = append(sample, key.Pivots().Distances(rest[i].Vec)...)
					}
					if err := key.FitTransform(sample, 32); err != nil {
						t.Fatal(err)
					}
				}
				cfg := kmeans.Config{NumCentroids: 12, Storage: storage, DiskPath: filepath.Join(t.TempDir(), "cells")}
				c, err := NewKMeansDirect(cfg, key, Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				ref := newFlatCells(key)
				insert := func(objs []metric.Object) {
					t.Helper()
					if _, err := c.Insert(objs); err != nil {
						t.Fatal(err)
					}
					ref.insert(objs)
				}
				insert(rest[:1000])
				insert(rest[1000:1010]) // below the bulk builder's batch floor
				insert(rest[1010:1200])
				checkAgainstFlatCells(t, "insert", c, ref, queries)

				var victims []metric.Object
				for i := 0; i < 1200; i += 4 {
					victims = append(victims, rest[i])
				}
				if n, _, err := c.Delete(victims); err != nil || n != len(victims) {
					t.Fatalf("delete = %d, %v", n, err)
				}
				ref.delete(victims)
				checkAgainstFlatCells(t, "delete", c, ref, queries)

				insert(victims[:40]) // purge-and-insert: back at the end of their cells
				checkAgainstFlatCells(t, "re-insert", c, ref, queries)

				if err := c.Engine().Compact(); err != nil {
					t.Fatal(err)
				}
				checkAgainstFlatCells(t, "compact", c, ref, queries)

				if storage != mindex.StorageDisk {
					return
				}
				if _, _, err := c.Delete(victims[40:60]); err != nil {
					t.Fatal(err)
				}
				ref.delete(victims[40:60])
				snap := filepath.Join(filepath.Dir(cfg.DiskPath), "kmeans.snap")
				if err := c.Engine().SaveSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				eng, err := engine.LoadSnapshot(cfg.IndexConfig(), snap)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				if c, err = NewKMeansDirectWithEngine(eng, key, Options{}); err != nil {
					t.Fatal(err)
				}
				checkAgainstFlatCells(t, "restore", c, ref, queries)
				insert(rest[1200:])
				checkAgainstFlatCells(t, "insert after restore", c, ref, queries)
			})
		}
	}
}

// TestKMeansOverTheWire: the family needs no kmeans message. A server
// hosting cfg.IndexConfig() — what `simserver -pivots K -max-level 1
// -ranking distsum -eager-root-split` builds — and an encrypted client
// holding the centroid key under the family's options answer all four
// query kinds exactly as the in-process family client does.
func TestKMeansOverTheWire(t *testing.T) {
	ds := dataset.Clustered(2041, 700, 6, 8, metric.L2{})
	direct, m := kmeansBackend(t, ds, 10, true)
	cfg := kmeans.Config{NumCentroids: m.K(), Storage: mindex.StorageMemory}
	eng, err := engine.New(cfg.IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewEncryptedWithEngine(eng)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	enc, err := DialEncrypted(srv.Addr(), direct.Key(), Options{MaxLevel: 1, StoreDists: true, Ranking: mindex.RankDistSum})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { enc.Close() })
	if _, err := enc.Insert(ds.Objects); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := equivalenceQueries(ds)
	for qi, q := range qs {
		want, wantCosts, err := direct.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCosts, err := enc.Search(ctx, q)
		if err != nil {
			t.Fatalf("query %d (%v) over the wire: %v", qi, q.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%v): wire answer differs from the in-process family: %s", qi, q.Kind, diffResults(want, got))
		}
		if gotCosts.Candidates != wantCosts.Candidates {
			t.Fatalf("query %d (%v): %d candidates over the wire, %d in-process", qi, q.Kind, gotCosts.Candidates, wantCosts.Candidates)
		}
	}
	batched, _, err := enc.SearchBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		want, _, err := direct.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[qi], want) {
			t.Fatalf("query %d (%v): wire batch differs from the in-process family", qi, q.Kind)
		}
	}
}

package core

import (
	"testing"

	"simcloud/internal/metric"
)

// TestDeleteEndToEnd: deleting objects through the encrypted client must
// remove exactly those objects from every later query, on 1 and 4 shards;
// 150 victims in chunks of 50 ship as a flight of three frames.
func TestDeleteEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		cfg.Shards = shards
		client, ds, srv := batchCloud(t, cfg, Options{BatchChunk: 50})
		if _, err := client.Insert(ds.Objects); err != nil {
			t.Fatal(err)
		}

		victims := ds.Objects[:150]
		gone := make(map[uint64]bool, len(victims))
		for _, o := range victims {
			gone[o.ID] = true
		}
		deleted, _, err := client.Delete(victims)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if deleted != len(victims) {
			t.Fatalf("shards=%d: deleted %d, want %d", shards, deleted, len(victims))
		}
		if srv.Index().Size() != ds.Size()-len(victims) {
			t.Fatalf("server size = %d, want %d", srv.Index().Size(), ds.Size()-len(victims))
		}

		// Deleting the same objects again is a no-op.
		again, _, err := client.Delete(victims)
		if err != nil {
			t.Fatal(err)
		}
		if again != 0 {
			t.Fatalf("re-delete removed %d entries", again)
		}

		// Unbounded range: exactly the survivors come back, decryptable.
		res, _, err := search(client, Query{Kind: KindRange, Vec: ds.Objects[200].Vec, Radius: 1e18})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != ds.Size()-len(victims) {
			t.Fatalf("range returned %d results, want %d", len(res), ds.Size()-len(victims))
		}
		for _, r := range res {
			if gone[r.ID] {
				t.Fatalf("deleted object %d still retrievable", r.ID)
			}
		}

		// Approximate search never surfaces deleted candidates either.
		knn, _, err := search(client, Query{Kind: KindApproxKNN, Vec: victims[0].Vec, K: 10, CandSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range knn {
			if gone[r.ID] {
				t.Fatalf("approx surfaced deleted object %d", r.ID)
			}
		}
	}
}

// TestDeleteEmptyAndUnknown covers the degenerate inputs.
func TestDeleteEmptyAndUnknown(t *testing.T) {
	cfg := testConfig()
	client, ds, _ := batchCloud(t, cfg, Options{})
	if _, err := client.Insert(ds.Objects[:50]); err != nil {
		t.Fatal(err)
	}
	if n, _, err := client.Delete(nil); err != nil || n != 0 {
		t.Fatalf("empty delete = %d, %v", n, err)
	}
	unknown := []metric.Object{{ID: 1 << 40, Vec: ds.Objects[0].Vec}}
	if n, _, err := client.Delete(unknown); err != nil || n != 0 {
		t.Fatalf("unknown delete = %d, %v", n, err)
	}
}

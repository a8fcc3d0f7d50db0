package cluster_test

// Tests of a range answer read in bounded pages (protocol v7) through the
// coordinator: the frame sizes at every hop, the answers against brute
// force, a layout where one node holds almost every qualifying entry, node
// pages no honest node sends, and what a write between two pages does to
// the answer.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"simcloud"
	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/leaktest"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// pageWorld is a CoPhIR collection of n objects (1.2 KB ciphertexts, so
// that a few thousand span several pages). Skewed, it is almost all of
// one first-level cell — the objects closest to the pivot most objects are
// closest to — plus one object in twenty from elsewhere, so that one owner
// serves almost every qualifying entry of a read.
func pageWorld(t *testing.T, n int, skewed bool) *testWorld {
	t.Helper()
	if !skewed {
		return cophirWorld(t, n)
	}
	w := cophirWorld(t, 4*n)
	count := map[int32]int{}
	for _, o := range w.data.Objects {
		count[cellOf(w, o)]++
	}
	var top int32
	for c, k := range count {
		if k > count[top] || k == count[top] && c < top {
			top = c
		}
	}
	var in, out []simcloud.Object
	for _, o := range w.data.Objects {
		if cellOf(w, o) == top {
			in = append(in, o)
		} else {
			out = append(out, o)
		}
	}
	others := n / 20
	if len(in) < n-others {
		t.Fatalf("the largest cell holds %d objects, want %d", len(in), n-others)
	}
	w.data.Objects = append(in[:n-others:n-others], out[:others]...)
	return w
}

// bruteAnswer is the exact answer over objs: the k nearest by (distance,
// ID) when k > 0, else everything within r in that order.
func bruteAnswer(dist metric.Distance, objs []simcloud.Object, q metric.Vector, k int, r float64) []core.Result {
	var all []core.Result
	for _, o := range objs {
		if d := dist.Dist(q, o.Vec); k > 0 || d <= r {
			all = append(all, core.Result{ID: o.ID, Dist: d})
		}
	}
	slices.SortFunc(all, func(a, b core.Result) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k > 0 {
		all = all[:min(k, len(all))]
	}
	return all
}

// sameAnswer compares IDs and distances.
func sameAnswer(got, want []core.Result) bool {
	return slices.EqualFunc(got, want, func(a, b core.Result) bool { return a.ID == b.ID && a.Dist == b.Dist })
}

// frameLimit is the largest reply frame a one-query read may cause: a
// page's records — up to PageBytes plus one record (under 2 KiB here) —
// plus per candidate a ranked reply's annotations, plus the headers and
// the trailer.
const frameLimit = wire.PageBytes + 2048 + 12*(wire.PageBytes/1024+2) + 64

// TestRangePageBounds: an R=2 cluster of three nodes, one or four shards a
// node, each node behind a counting relay and the client behind one more,
// its entries permutation-only or with stored distances. An exact k-NN and
// range queries equal brute force and ship each candidate of the whole
// answer once — a range over everything, which without stored distances
// the server cannot filter, in several pages; with them, a k-NN whose
// candidate size asks for more records than a page holds; no reply frame at
// any hop exceeds a page plus one record. The same holds when one node holds
// almost every qualifying entry. Every pooled buffer is poisoned on release,
// so a page view outliving its frame corrupts an answer every time.
func TestRangePageBounds(t *testing.T) {
	wire.PoisonBuffers(t)
	const n = 2400
	for _, skewed := range []bool{false, true} {
		w := pageWorld(t, n, skewed)
		for _, shards := range []int{1, 4} {
			for _, stored := range []bool{false, true} {
				t.Run(fmt.Sprintf("skewed=%v/shards=%d/stored=%v", skewed, shards, stored), func(t *testing.T) {
					checkPageBounds(t, w, shards, core.Options{StoreDists: stored})
				})
			}
		}
	}
}

// checkPageBounds is one deployment of TestRangePageBounds.
func checkPageBounds(t *testing.T, w *testWorld, shards int, opts core.Options) {
	n := len(w.data.Objects)
	hops := func(relays []*relay, what string) {
		t.Helper()
		for i, r := range relays {
			if m := r.maxReply.Load(); m > frameLimit {
				t.Fatalf("%s: hop %d carried a %d B frame, over a page plus one record (%d B)", what, i, m, frameLimit)
			}
		}
	}
	cfg := nodeConfig(true)
	cfg.Shards = shards
	backends := make([]string, 3)
	for i := range backends {
		backends[i] = startServer(t, cfg).Addr()
	}
	coord, nodeRelays := startRelayedCluster(t, backends, 2)
	front := startRelay(t, coord.Addr())
	client, err := core.DialEncrypted(front.addr(), w.key, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewDirect(cfg, w.key, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.Insert(w.data.Objects); err != nil {
		t.Fatal(err)
	}
	knnCand := 0
	if opts.StoreDists {
		knnCand = 1200
	}
	for _, qi := range []int{5, n / 2, n - 1} {
		q := w.data.Objects[qi].Vec
		radius := bruteAnswer(w.data.Dist, w.data.Objects, q, 60, 0)[59].Dist
		for _, tc := range []struct {
			name string
			q    core.Query
			want []core.Result
		}{
			// With stored distances the k-NN's first page is a range
			// cut at knnCand candidates, ~1.4 MB of records: the page
			// budget cuts it first. Without them it is an approximate
			// read, which no byte budget cuts, so it asks the default.
			{"knn", core.Query{Kind: core.KindKNN, Vec: q, K: 10, CandSize: knnCand}, bruteAnswer(w.data.Dist, w.data.Objects, q, 10, 0)},
			{"range", core.Query{Kind: core.KindRange, Vec: q, Radius: radius}, bruteAnswer(w.data.Dist, w.data.Objects, q, 0, radius)},
			{"range-all", core.Query{Kind: core.KindRange, Vec: q, Radius: math.MaxFloat32}, bruteAnswer(w.data.Dist, w.data.Objects, q, 0, math.MaxFloat32)},
		} {
			for _, r := range append(nodeRelays, front) {
				r.reset()
			}
			got, costs, err := client.Search(context.Background(), tc.q)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, tc.name, err)
			}
			if !sameAnswer(got, tc.want) {
				t.Fatalf("query %d %s: answer differs from brute force", qi, tc.name)
			}
			hops(append(nodeRelays, front), fmt.Sprintf("query %d %s", qi, tc.name))
			inProcess, dcosts, err := direct.Search(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(inProcess, tc.want) || dcosts.Candidates != costs.Candidates {
				t.Fatalf("query %d %s: the in-process client shipped %d candidates, the cluster %d (answer equal %v)",
					qi, tc.name, dcosts.Candidates, costs.Candidates, sameAnswer(inProcess, tc.want))
			}
			dists := w.key.TransformDists(w.key.Pivots().Distances(q))
			if tc.name == "knn" {
				if knnCand > 0 {
					// The first CandSize candidates' records pass a page, so
					// only the byte cut kept the frames above within one.
					first, err := direct.Engine().Search(mindex.Query{Kind: mindex.KindRange,
						ApproxQuery: mindex.ApproxQuery{Dists: dists}, Radius: math.Inf(1), CandSize: knnCand})
					if err != nil {
						t.Fatal(err)
					}
					bytes := 0
					for i := range first {
						bytes += first[i].Bytes()
					}
					if bytes <= wire.PageBytes {
						t.Fatalf("query %d knn: the first %d candidates hold %d B, not over a page", qi, knnCand, bytes)
					}
				}
				continue
			}
			// Every candidate of the whole answer, and each once.
			whole, err := direct.Engine().Search(mindex.Query{Kind: mindex.KindRange,
				ApproxQuery: mindex.ApproxQuery{Dists: dists}, Radius: w.key.TransformRadius(tc.q.Radius)})
			if err != nil {
				t.Fatal(err)
			}
			if costs.Candidates != int64(len(whole)) {
				t.Fatalf("query %d %s: %d candidates shipped, the whole answer holds %d", qi, tc.name, costs.Candidates, len(whole))
			}
			if pages := front.replies.Load(); tc.name == "range-all" && (len(whole) != n || pages < 3) {
				t.Fatalf("query %d %s: %d candidates in %d pages, want the collection in several", qi, tc.name, len(whole), pages)
			}
		}
	}
}

// TestHostileNodeRangePage: a node whose range page goes on after its
// records reach the page budget, comes out of bound-key order, or carries a
// NaN bound costs the client an error frame naming the fault; the
// coordinator keeps serving and marks no node down. That holds for a range
// cut at its radius and for one cut at a candidate size (a precise k-NN's
// first page).
func TestHostileNodeRangePage(t *testing.T) {
	hello := wire.HelloResp{
		Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
		MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
	}
	cand := func(id uint64, lb float64, payload int) mindex.RankedCandidate {
		return mindex.RankedCandidate{Promise: lb, Entry: mindex.ViewOf(mindex.Entry{ID: id, Perm: []int32{0, 1}, Payload: make([]byte, payload)})}
	}
	half := wire.PageBytes / 2
	for name, tc := range map[string]struct {
		page []mindex.RankedCandidate
		want string
	}{
		"over-budget": {[]mindex.RankedCandidate{cand(1, 0.1, half), cand(2, 0.2, half), cand(3, 0.3, 10)}, "over the page budget"},
		"unsorted":    {[]mindex.RankedCandidate{cand(2, 0.5, 10), cand(1, 0.5, 10)}, "out of bound-key order"},
		"repeated":    {[]mindex.RankedCandidate{cand(1, 0.5, 10), cand(1, 0.5, 10)}, "out of bound-key order"},
		"nan-bound":   {[]mindex.RankedCandidate{cand(1, math.NaN(), 10)}, "NaN bound"},
	} {
		for read, q := range map[string]wire.BatchQuery{
			"radius": {Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: 1},
			"count":  {Kind: wire.BatchRange, Dists: make([]float64, testPivots), Radius: math.Inf(1), CandSize: 4},
		} {
			t.Run(name+"/"+read, func(t *testing.T) {
				checkHostilePage(t, hello, q, tc.page, tc.want)
			})
		}
	}
}

// checkHostilePage is one case of TestHostileNodeRangePage: two scripted
// nodes that answer q with page.
func checkHostilePage(t *testing.T, hello wire.HelloResp, q wire.BatchQuery, page []mindex.RankedCandidate, want string) {
	leaktest.Check(t)
	reply := wire.BatchRankedResp{Results: [][]mindex.RankedCandidate{page}}.Encode()
	script := func(wire.MsgType, []byte) (wire.MsgType, []byte) { return wire.MsgBatchRankedCandidates, reply }
	addrs := []string{scriptedNode(t, hello, script).Addr(), scriptedNode(t, hello, script).Addr()}
	coord, err := cluster.New(addrs, cluster.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	query := wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode()
	for round := range 2 {
		if err := wire.WriteFrame(conn, wire.MsgBatchQuery, query); err != nil {
			t.Fatal(err)
		}
		typ, resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if typ != wire.MsgError {
			t.Fatalf("round %d: hostile page answered with %v, want an error frame", round, typ)
		}
		if m, _ := wire.DecodeErrorResp(resp); !strings.Contains(m.Msg, want) {
			t.Fatalf("round %d: error %q does not say %q", round, m.Msg, want)
		}
	}
	if live := coord.LiveNodes(); len(live) != 2 {
		t.Fatalf("a hostile page marked a node down: live %v", live)
	}
}

// TestWritesBetweenPages pins the read semantics of a paged range, on a
// four-shard server and on an R=2 cluster of three. The collection is
// read without distances, so every entry's bound is 0 and the pages follow
// the IDs. Between the first page and the second, another client deletes
// entries the first page did not carry and inserts two objects, one keyed
// before the first page's last key and one after. The deletes, acknowledged
// before the second page is asked for, never appear in the answer; the
// insert keyed after the cursor is in it, and the one keyed before is
// missed — exactly as an insert between a precise k-NN's two requests
// always could be. Everything else is brute force over the collection.
func TestWritesBetweenPages(t *testing.T) {
	wire.PoisonBuffers(t)
	const n = 2400
	base := cophirWorld(t, n)
	// Odd IDs, so that an insert can land before the first page's end.
	objs := make([]simcloud.Object, n)
	for i, o := range base.data.Objects {
		objs[i] = simcloud.Object{ID: uint64(2*i + 1), Vec: o.Vec}
	}
	cfg := nodeConfig(true)
	cfg.Shards = 4
	for _, deployment := range []string{"server", "cluster"} {
		t.Run(deployment, func(t *testing.T) {
			addr := startServer(t, cfg).Addr()
			if deployment == "cluster" {
				backends := make([]string, 3)
				for i := range backends {
					backends[i] = startServer(t, nodeConfig(true)).Addr()
				}
				coord, err := cluster.New(backends, cluster.Options{Replicas: 2, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				if err := coord.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { coord.Close() })
				addr = coord.Addr()
			}
			writer := dial(t, addr, base.key)
			if _, err := writer.Insert(objs); err != nil {
				t.Fatal(err)
			}
			front := startRelay(t, addr)
			reader := dial(t, front.addr(), base.key)
			gone := objs[n-40:]
			early := simcloud.Object{ID: 2, Vec: objs[7].Vec}
			late := simcloud.Object{ID: 1 << 40, Vec: objs[8].Vec}
			var hookErr error
			hook := func() {
				front.onPage.Store(nil) // once, between pages one and two
				if _, _, err := writer.Delete(gone); err != nil {
					hookErr = err
					return
				}
				_, hookErr = writer.Insert([]simcloud.Object{early, late})
			}
			front.onPage.Store(&hook)
			q := objs[100].Vec
			got, _, err := reader.Search(context.Background(), core.Query{Kind: core.KindRange, Vec: q, Radius: math.MaxFloat32})
			if err != nil || hookErr != nil {
				t.Fatalf("read %v, writes between the pages %v", err, hookErr)
			}
			if front.onPage.Load() != nil {
				t.Fatal("the read took one page")
			}
			want := bruteAnswer(base.data.Dist, append(slices.Clone(objs[:n-40]), late), q, 0, math.MaxFloat32)
			if !sameAnswer(got, want) {
				ids := resultIDs(got)
				t.Fatalf("answer of %d (early insert in it %v, a deleted entry in it %v), want %d",
					len(got), slices.Contains(ids, early.ID), slices.Contains(ids, gone[0].ID), len(want))
			}
		})
	}
}

// TestClientRefusesStalledPages: a server that answers every page of a range
// as full and ending at the same key would keep an honest client asking
// forever; the client refuses the page whose last key does not follow the
// cursor it asked with, and a page announced full under the page budget.
func TestClientRefusesStalledPages(t *testing.T) {
	leaktest.Check(t)
	w := newWorld(t, 10)
	ct, err := w.key.EncryptObject(w.data.Objects[0])
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.HelloResp{
		Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivots,
		MaxLevel: 8, BucketCapacity: testBucket, Ranking: 1, EagerRootSplit: true, Shards: 1,
	}
	// A flat reply to one range query: records candidates, every one the
	// same valid ciphertext, announced full and ending at the last one.
	page := func(records int) []byte {
		var b wire.Buffer
		b.U64(0)
		b.U32(1)
		b.U32(uint32(records))
		for id := range records {
			b.B = mindex.AppendEntry(b.B, mindex.Entry{ID: uint64(id + 1), Payload: ct})
		}
		wire.AppendPage(&b, wire.Page{Full: true, Last: mindex.BoundKey{ID: uint64(records)}})
		return b.B
	}
	full := wire.PageBytes/(len(ct)+20) + 1
	for name, tc := range map[string]struct {
		reply []byte
		want  string
	}{
		"stalled":    {page(full), "does not follow"},
		"under-page": {page(3), "under the page budget"},
	} {
		t.Run(name, func(t *testing.T) {
			srv := scriptedNode(t, hello, func(wire.MsgType, []byte) (wire.MsgType, []byte) {
				return wire.MsgBatchCandidates, tc.reply
			})
			client := dial(t, srv.Addr(), w.key)
			_, _, err := client.Search(context.Background(), core.Query{Kind: core.KindRange, Vec: w.data.Objects[1].Vec, Radius: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("range over a hostile server: %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

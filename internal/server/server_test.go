package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/engine"
	"simcloud/internal/leaktest"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/wal"
	"simcloud/internal/wire"
)

func testCfg() mindex.Config {
	return mindex.Config{
		NumPivots: 6, MaxLevel: 3, BucketCapacity: 10,
		Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
	}
}

func startEncrypted(t *testing.T) *Server {
	t.Helper()
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {} // silence expected connection errors
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startPlain(t *testing.T) *Server {
	t.Helper()
	return startPlainDim(t, 2)
}

// startPlainDim starts a plain server over pivots of dim dimensions.
func startPlainDim(t *testing.T, dim int) *Server {
	t.Helper()
	ds := dataset.Clustered(1, 50, dim, 2, metric.L1{})
	b, err := core.NewPlainBackend(testCfg(), pivot.SelectRandom(rand.New(rand.NewPCG(1, 1)), ds.Dist, ds.Objects, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewPlain(b)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// request sends one frame and reads one response.
func request(t *testing.T, conn net.Conn, typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return respType, resp
}

func expectError(t *testing.T, conn net.Conn, typ wire.MsgType, payload []byte, contains string) {
	t.Helper()
	respType, resp := request(t, conn, typ, payload)
	if respType != wire.MsgError {
		t.Fatalf("%v: expected error response, got %v", typ, respType)
	}
	m, err := wire.DecodeErrorResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Msg, contains) {
		t.Fatalf("%v: error %q does not mention %q", typ, m.Msg, contains)
	}
}

// downloadAll is the trivial baseline's request: every stored entry.
var downloadAll = wire.BatchQueryReq{Queries: []wire.BatchQuery{{Kind: wire.BatchAll}}}.Encode()

func TestUnknownMessageType(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgType(250), nil, "unsupported request")
}

func TestGarbagePayloadIsError(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// A malformed insert payload must produce an error, not kill the server.
	expectError(t, conn, wire.MsgIngestChunk, []byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2}, "")
	// The connection must still be usable afterwards.
	respType, _ := request(t, conn, wire.MsgBatchQuery, downloadAll)
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("connection dead after error: got %v", respType)
	}
}

func TestModeGuards(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgIngestObjChunk,
		wire.IngestObjChunkReq{Objects: []metric.Object{{ID: 1, Vec: metric.Vector{1}}}}.Encode(),
		"plain")
	expectError(t, conn, wire.MsgPlainQuery,
		wire.PlainQueryReq{Kind: wire.PlainKNN, Q: metric.Vector{1}, K: 1}.Encode(),
		"plain")

	// And the reverse on a plain server.
	expectError(t, dial(t, startPlain(t)), wire.MsgBatchQuery, downloadAll, "encrypted")
}

// TestPlainWrongDimensionIsError: a plain server measures every object and
// query against its pivots, so a vector of another dimension must be an
// error reply — one 13-byte query used to panic in the distance function
// and take the whole process down — and the connection must stay usable.
func TestPlainWrongDimensionIsError(t *testing.T) {
	leaktest.Check(t)
	srv := startPlainDim(t, 6)
	conn := dial(t, srv)
	short := metric.Vector{1}
	objs := []metric.Object{{ID: 1, Vec: make(metric.Vector, 6)}, {ID: 2, Vec: short}}
	for _, req := range []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainKNN, Q: short, K: 1}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainRange, Q: short, Radius: 1}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainApprox, Q: short, K: 1, CandSize: 5}.Encode()},
		{wire.MsgPlainQuery, wire.PlainQueryReq{Kind: wire.PlainFirstCell, Q: short, K: 1}.Encode()},
		{wire.MsgIngestObjChunk, wire.IngestObjChunkReq{Seq: 1, Objects: objs}.Encode()},
	} {
		expectError(t, conn, req.typ, req.payload, "dimensions")
		respType, _ := request(t, conn, wire.MsgPlainQuery,
			wire.PlainQueryReq{Kind: wire.PlainKNN, Q: make(metric.Vector, 6), K: 1}.Encode())
		if respType != wire.MsgResults {
			t.Fatalf("%v: connection unusable after the error: got %v", req.typ, respType)
		}
	}
	if n := srv.Index().Size(); n != 0 {
		t.Fatalf("refused inserts left %d entries", n)
	}
}

func TestInvalidPermutationRejected(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Duplicate elements: not a permutation.
	expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: []int32{0, 0, 1, 2, 3, 4}, CandSize: 5},
	}}.Encode(), "permutation")
	expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchFirstCell, Perm: []int32{0, 1}},
	}}.Encode(), "permutation")
}

// TestRetiredMessagesRefused: every reserved message number — the requests
// protocol version 2 retired, the side doors version 4 folded into one
// request per concept and the one-frame inserts version 5 folded into the
// chunk messages — is answered with an error naming the version that
// retired it and its replacement, never mis-decoded as something else, and
// the connection stays usable after each refusal.
func TestRetiredMessagesRefused(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	refused := 0
	for _, tc := range []struct {
		typs []wire.MsgType
		want string
	}{
		{[]wire.MsgType{4, 5, 6, 7, 29, 33}, "retired in protocol v2; send batch-query"},
		{[]wire.MsgType{11, 19}, "retired in protocol v4; send batch-query"},
		{[]wire.MsgType{8, 9, 10, 32}, "retired in protocol v4; send plain-query"},
		{[]wire.MsgType{16, 18, 20}, "retired in protocol v4; send put-blobs"},
		{[]wire.MsgType{14, 15, 17, 21, 22}, "retired in protocol v4; send get-blobs"},
		{[]wire.MsgType{2}, "retired in protocol v5; send ingest-chunk"},
		{[]wire.MsgType{3}, "retired in protocol v5; send ingest-obj-chunk"},
	} {
		for _, typ := range tc.typs {
			expectError(t, conn, typ, []byte{1, 2, 3}, tc.want)
			if respType, _ := request(t, conn, wire.MsgHello, nil); respType != wire.MsgHelloAck {
				t.Fatalf("connection unusable after refusing type %d: %v", typ, respType)
			}
			refused++
		}
	}
	if refused != 22 {
		t.Fatalf("refused %d reserved numbers, want 22", refused)
	}
}

// batchQuery sends one MsgBatchQuery and decodes the answer in the form the
// request asked for; flat answers come back as ranked candidates with zero
// annotations, so both forms compare with one helper.
func batchQuery(t *testing.T, conn net.Conn, req wire.BatchQueryReq) [][]mindex.RankedCandidate {
	t.Helper()
	respType, resp := request(t, conn, wire.MsgBatchQuery, req.Encode())
	if req.Ranked {
		if respType != wire.MsgBatchRankedCandidates {
			t.Fatalf("ranked batch query: got %v", respType)
		}
		m, err := wire.DecodeBatchRankedResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		return m.Results
	}
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("batch query: got %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, req.Queries)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]mindex.RankedCandidate, len(m.Results))
	for i, entries := range m.Results {
		out[i] = make([]mindex.RankedCandidate, len(entries))
		for j, e := range entries {
			out[i][j] = mindex.RankedCandidate{Entry: mindex.ViewOf(e)}
		}
	}
	return out
}

// flatPages sends req (flat) and returns its reply's per-query page
// trailers (the zero Page for the queries that are not ranges).
func flatPages(t *testing.T, conn net.Conn, req wire.BatchQueryReq) []wire.Page {
	t.Helper()
	respType, resp := request(t, conn, wire.MsgBatchQuery, req.Encode())
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("batch query: got %v", respType)
	}
	m, err := wire.DecodeBatchQueryResp(resp, req.Queries)
	if err != nil {
		t.Fatal(err)
	}
	return m.Pages
}

// asShipped is a Search result as a query reply carries it: each candidate's
// ID and payload, without its perm, dists and vec (wire.BatchRankedResp).
func asShipped(rcs []mindex.RankedCandidate) []mindex.RankedCandidate {
	out := make([]mindex.RankedCandidate, len(rcs))
	for i, rc := range rcs {
		rc.Entry = mindex.ViewOf(mindex.Entry{ID: rc.Entry.ID, Payload: rc.Entry.Payload()})
		out[i] = rc
	}
	return out
}

// dropAnnotations is the flat form of a ranked answer.
func dropAnnotations(rcs []mindex.RankedCandidate) []mindex.RankedCandidate {
	out := make([]mindex.RankedCandidate, len(rcs))
	for i, rc := range rcs {
		out[i] = mindex.RankedCandidate{Entry: rc.Entry}
	}
	return out
}

// TestDeleteDispatch drives the delete path over the wire: insert entries,
// tombstone a subset, verify searches stop returning them and the ack
// reports the exact count. Hostile references (empty or out-of-range
// routing prefixes) must come back as error responses.
func TestDeleteDispatch(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)

	entries := []mindex.Entry{
		{ID: 1, Perm: []int32{0, 1, 2}, Payload: []byte("a")},
		{ID: 2, Perm: []int32{1, 2, 3}, Payload: []byte("b")},
		{ID: 3, Perm: []int32{2, 3, 4}, Payload: []byte("c")},
		{ID: 4, Perm: []int32{3, 4, 5}, Payload: []byte("d")},
	}
	insertEntries(t, conn, entries)

	// Delete entries 2 and 3, plus an unknown reference (skipped).
	refs := []mindex.Entry{
		{ID: 2, Perm: entries[1].Perm},
		{ID: 3, Perm: entries[2].Perm},
		{ID: 99, Perm: []int32{5, 0, 1}},
	}
	respType, resp := request(t, conn, wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: refs}.Encode())
	if respType != wire.MsgDeleteAck {
		t.Fatalf("delete response = %v", respType)
	}
	ack, err := wire.DecodeDeleteAckResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Deleted != 2 {
		t.Fatalf("deleted = %d, want 2", ack.Deleted)
	}
	if srv.Index().Size() != 2 || srv.Index().Dead() != 2 {
		t.Fatalf("index size/dead = %d/%d, want 2/2", srv.Index().Size(), srv.Index().Dead())
	}

	// The tombstoned entries are gone from query responses.
	cands := batchQuery(t, conn, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: 1e18},
	}})[0]
	if len(cands) != 2 {
		t.Fatalf("range returned %d candidates, want 2", len(cands))
	}
	for _, c := range cands {
		if c.Entry.ID == 2 || c.Entry.ID == 3 {
			t.Fatalf("deleted entry %d still served", c.Entry.ID)
		}
	}

	// Hostile references are rejected with an error response, and the
	// connection stays usable.
	expectError(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: []mindex.Entry{{ID: 7, Perm: []int32{-1, 0, 1}}}}.Encode(),
		"out of range")
	expectError(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: []mindex.Entry{{ID: 7}}}.Encode(),
		"permutation is empty")
	expectError(t, conn, wire.MsgDeleteEntries, []byte{0xFF, 0xFF}, "")
	if respType, _ := request(t, conn, wire.MsgDeleteEntries,
		wire.DeleteEntriesReq{Refs: nil}.Encode()); respType != wire.MsgDeleteAck {
		t.Fatalf("connection unusable after hostile delete: %v", respType)
	}
}

// TestBlobStore: the keyed blob store behind raw data and the compared
// techniques. A put replaces the list of each key it names with its blobs
// for that key, in order, and leaves other keys alone; a get answers one
// list per key in request order, empty for an absent key; spaces are
// disjoint; both deployments serve it.
func TestBlobStore(t *testing.T) {
	leaktest.Check(t)
	for _, srv := range []*Server{startEncrypted(t), startPlain(t)} {
		conn := dial(t, srv)
		put := func(space uint8, items ...wire.Blob) {
			t.Helper()
			if respType, _ := request(t, conn, wire.MsgPutBlobs,
				wire.PutBlobsReq{Space: space, Items: items}.Encode()); respType != wire.MsgAck {
				t.Fatalf("%v put-blobs: got %v", srv.Mode(), respType)
			}
		}
		get := func(space uint8, keys ...uint64) [][][]byte {
			t.Helper()
			respType, resp := request(t, conn, wire.MsgGetBlobs, wire.GetBlobsReq{Space: space, Keys: keys}.Encode())
			if respType != wire.MsgBlobs {
				t.Fatalf("%v get-blobs: got %v", srv.Mode(), respType)
			}
			m, err := wire.DecodeBlobsResp(resp, len(keys))
			if err != nil {
				t.Fatal(err)
			}
			return m.Lists
		}
		put(wire.SpaceFDH, wire.Blob{Key: 1, Data: []byte{10}}, wire.Blob{Key: 2, Data: []byte{20}},
			wire.Blob{Key: 1, Data: []byte{11}})
		put(wire.SpaceEHI, wire.Blob{Key: 1, Data: []byte{1, 2, 3}})
		want := [][][]byte{{{11}, {10}}, nil, {{11}, {10}}}
		if got := get(wire.SpaceFDH, 3, 2, 1); !reflect.DeepEqual(got, [][][]byte{nil, {{20}}, {{10}, {11}}}) {
			t.Fatalf("%v: lists %v", srv.Mode(), got)
		}
		// Replacing key 1 keeps key 2; the EHI space never saw the FDH blobs.
		put(wire.SpaceFDH, wire.Blob{Key: 1, Data: []byte{11}}, wire.Blob{Key: 1, Data: []byte{10}})
		if got := get(wire.SpaceFDH, 1, 4, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: lists after replace %v, want %v", srv.Mode(), got, want)
		}
		if got := get(wire.SpaceFDH, 2); !reflect.DeepEqual(got, [][][]byte{{{20}}}) {
			t.Fatalf("%v: unlisted key changed: %v", srv.Mode(), got)
		}
		if got := get(wire.SpaceEHI, 1, 2); !reflect.DeepEqual(got, [][][]byte{{{1, 2, 3}}, nil}) {
			t.Fatalf("%v: EHI space %v", srv.Mode(), got)
		}
		if got := get(wire.SpaceRaw); len(got) != 0 {
			t.Fatalf("%v: a get of no keys returned %d lists", srv.Mode(), len(got))
		}
		expectError(t, conn, wire.MsgPutBlobs, []byte{wire.SpaceRaw, 0xFF, 0xFF, 0xFF, 0x7F}, "")
		expectError(t, conn, wire.MsgGetBlobs, []byte{wire.SpaceRaw, 2, 0, 0, 0, 1}, "")
	}

	// Connections replacing and reading one key at once: every get sees one
	// put's list whole — two equal blobs — never a mix of two.
	srv := startEncrypted(t)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			exchange := func(typ wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
				if err := wire.WriteFrame(conn, typ, payload); err != nil {
					return 0, nil, err
				}
				return wire.ReadFrame(conn)
			}
			get := wire.GetBlobsReq{Space: wire.SpaceRaw, Keys: []uint64{1}}.Encode()
			for i := range 50 {
				blob := []byte{byte(w), byte(i)}
				put := wire.PutBlobsReq{Space: wire.SpaceRaw, Items: []wire.Blob{{Key: 1, Data: blob}, {Key: 1, Data: blob}}}
				if respType, _, err := exchange(wire.MsgPutBlobs, put.Encode()); err != nil || respType != wire.MsgAck {
					t.Errorf("concurrent put: %v (%v)", respType, err)
					return
				}
				_, resp, err := exchange(wire.MsgGetBlobs, get)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := wire.DecodeBlobsResp(resp, 1)
				if err != nil || len(m.Lists[0]) != 2 || !reflect.DeepEqual(m.Lists[0][0], m.Lists[0][1]) {
					t.Errorf("concurrent get: %v (%v)", m.Lists, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerTimeReported(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	entry := mindex.Entry{ID: 1, Perm: []int32{0, 1, 2, 3, 4, 5}, Payload: []byte{1}}
	respType, resp := request(t, conn, wire.MsgIngestChunk,
		wire.IngestChunkReq{Entries: []mindex.Entry{entry}}.Encode())
	if respType != wire.MsgIngestChunkAck {
		t.Fatalf("insert: got %v", respType)
	}
	ack, err := wire.DecodeIngestChunkAckResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ServerNanos == 0 {
		t.Fatal("server reported zero processing time")
	}
}

func TestDroppedConnectionDoesNotKillServer(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Write half a frame and hang up.
	if _, err := conn.Write([]byte{0, 0, 0, 100, 5, 1, 2}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(10 * time.Millisecond)
	// Server still answers new connections.
	conn2 := dial(t, srv)
	respType, _ := request(t, conn2, wire.MsgBatchQuery, downloadAll)
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("server unhealthy after dropped connection: %v", respType)
	}
}

func TestCloseIdempotentAndRefusesNewWork(t *testing.T) {
	leaktest.Check(t)
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		t.Fatal("closed server still accepting connections")
	}
}

func TestAddrBeforeStart(t *testing.T) {
	leaktest.Check(t)
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() != "" {
		t.Fatalf("addr before start = %q", srv.Addr())
	}
	if srv.Mode() != ModeEncrypted {
		t.Fatalf("mode = %v", srv.Mode())
	}
	if ModePlain.String() != "plain" || Mode(9).String() == "" {
		t.Fatal("mode strings broken")
	}
}

func testEntries(n int) []mindex.Entry {
	entries := make([]mindex.Entry, n)
	for i := range entries {
		perm := []int32{0, 1, 2, 3, 4, 5}
		perm[0], perm[i%6] = perm[i%6], perm[0]
		dists := make([]float64, 6)
		for j := range dists {
			dists[j] = float64((i+j)%17) + 0.5
		}
		entries[i] = mindex.Entry{ID: uint64(i + 1), Perm: perm, Dists: dists, Payload: []byte{byte(i)}}
	}
	return entries
}

func insertEntries(t *testing.T, conn net.Conn, entries []mindex.Entry) {
	t.Helper()
	respType, resp := request(t, conn, wire.MsgIngestChunk,
		wire.IngestChunkReq{Entries: entries}.Encode())
	if respType != wire.MsgIngestChunkAck {
		t.Fatalf("insert: got %v: %s", respType, resp)
	}
}

func insertTestEntries(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	insertEntries(t, conn, testEntries(n))
}

// TestBatchQueryEquivalence is the server-layer table on the one read
// request: ranking ∈ {footrule, distance-sum} (so all five wire kinds
// appear with download-all, and a range resumed after a cursor) × shards ∈
// {1, 4} × allow ∈
// {nil, allow-all, half, empty} × form ∈ {flat, ranked}. Over the socket it
// asserts
//
//   - the answer equals the engine's Search of the same query;
//   - flat ≡ ranked with the annotations dropped, but for a bound query's
//     trailer: the ranked answer's last bound;
//   - a query alone in its frame ≡ the same query inside a mixed batch;
//   - nil allow-list ≡ allow-all, byte for byte;
//   - filtered ≡ a server holding only the allowed first-level cells;
//   - download-all returns each allowed entry once, as ID and payload.
func TestBatchQueryEquivalence(t *testing.T) {
	leaktest.Check(t)
	start := func(cfg mindex.Config, entries []mindex.Entry) (*Server, net.Conn) {
		t.Helper()
		srv, err := NewEncrypted(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		conn := dial(t, srv)
		insertEntries(t, conn, entries)
		return srv, conn
	}
	entries := testEntries(120)
	qDists := []float64{1, 2, 3, 4, 5, 6}
	perm := []int32{2, 0, 1, 3, 4, 5}
	cursor := &mindex.BoundKey{LB: 3.5, ID: 40}
	queriesFor := map[mindex.RankStrategy][]wire.BatchQuery{
		mindex.RankFootrule: {
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5},
			{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 15},
			{Kind: wire.BatchFirstCell, Perm: perm},
			{Kind: wire.BatchRange, Dists: qDists, Radius: math.Inf(1), CandSize: 12},
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5, After: cursor},
			{Kind: wire.BatchAll},
		},
		mindex.RankDistSum: {
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5},
			{Kind: wire.BatchApproxDists, Dists: qDists, CandSize: 10},
			{Kind: wire.BatchFirstCell, Dists: qDists},
			{Kind: wire.BatchRange, Dists: qDists, Radius: math.Inf(1), CandSize: 200},
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5, After: cursor},
			{Kind: wire.BatchAll},
		},
	}
	allows := []struct {
		name  string
		allow []int32
	}{{"nil", nil}, {"all", []int32{0, 1, 2, 3, 4, 5}}, {"half", []int32{0, 2, 5}}, {"empty", []int32{}}}

	for ranking, queries := range queriesFor {
		for _, shards := range []int{1, 4} {
			cfg := testCfg()
			cfg.Ranking = ranking
			cfg.Shards = shards
			cfg.EagerRootSplit = true // the shape every federated node has
			srv, conn := start(cfg, entries)
			var unfiltered [][]mindex.RankedCandidate
			for _, ac := range allows {
				name := fmt.Sprintf("%v/shards=%d/allow=%s", ranking, shards, ac.name)
				ranked := batchQuery(t, conn, wire.BatchQueryReq{Queries: queries, Ranked: true, Allow: ac.allow})
				flat := batchQuery(t, conn, wire.BatchQueryReq{Queries: queries, Allow: ac.allow})
				if len(ranked) != len(queries) || len(flat) != len(queries) {
					t.Fatalf("%s: %d ranked / %d flat results for %d queries", name, len(ranked), len(flat), len(queries))
				}
				for qi, page := range flatPages(t, conn, wire.BatchQueryReq{Queries: queries, Allow: ac.allow}) {
					var want wire.Page
					if queries[qi].Kind == wire.BatchRange {
						want = wire.PageOf(ranked[qi], int(queries[qi].CandSize))
					}
					if page != want {
						t.Fatalf("%s: flat reply %d carries page %+v, want %+v", name, qi, page, want)
					}
				}
				filter, err := mindex.NewPivotFilter(cfg.NumPivots, ac.allow)
				if err != nil {
					t.Fatal(err)
				}
				var kept []mindex.Entry
				for _, e := range entries {
					if filter.Allows(e.Perm[0]) {
						kept = append(kept, e)
					}
				}
				_, subsetConn := start(cfg, kept)
				subset := batchQuery(t, subsetConn, wire.BatchQueryReq{Queries: queries, Ranked: true})
				for qi, q := range queries {
					qname := fmt.Sprintf("%s/kind=%d", name, q.Kind)
					iq, err := q.IndexQuery(cfg.NumPivots, filter)
					if err != nil {
						t.Fatal(err)
					}
					direct, err := srv.Index().Search(iq)
					if err != nil {
						t.Fatal(err)
					}
					shipped := asShipped(direct)
					if !sameRanked(flat[qi], dropAnnotations(shipped)) {
						t.Fatalf("%s: flat answer is not engine Search's with annotations dropped", qname)
					}
					if !sameRanked(ranked[qi], shipped) {
						t.Fatalf("%s: wire answer (%d) != engine Search (%d)", qname, len(ranked[qi]), len(direct))
					}
					for _, form := range []bool{false, true} {
						alone := batchQuery(t, conn, wire.BatchQueryReq{
							Queries: []wire.BatchQuery{q}, Ranked: form, Allow: ac.allow})
						want := ranked[qi]
						if !form {
							want = flat[qi]
						}
						if len(alone) != 1 || !sameRanked(alone[0], want) {
							t.Fatalf("%s ranked=%v: batch-of-one differs from the same query in a mixed batch", qname, form)
						}
					}
					if !sameRanked(ranked[qi], subset[qi]) {
						t.Fatalf("%s: filtered answer (%d) != answer of a server holding only the allowed cells (%d)",
							qname, len(ranked[qi]), len(subset[qi]))
					}
					if ac.name == "empty" && len(ranked[qi]) != 0 {
						t.Fatalf("%s: empty allow-list returned %d candidates", qname, len(ranked[qi]))
					}
				}
				switch ac.name {
				case "nil":
					unfiltered = ranked
				case "all":
					if !reflect.DeepEqual(ranked, unfiltered) {
						t.Fatalf("%s: allow-all differs from the nil allow-list", name)
					}
				}

				// The download holds every allowed entry once, as the entry's
				// ID and payload.
				all := ranked[len(queries)-1]
				got := make(map[uint64][]byte, len(all))
				for _, rc := range all {
					got[rc.Entry.ID] = rc.Entry.Payload()
				}
				if len(all) != len(kept) || len(got) != len(kept) {
					t.Fatalf("%s: download-all returned %d entries (%d distinct), want %d", name, len(all), len(got), len(kept))
				}
				for _, e := range kept {
					if p, ok := got[e.ID]; !ok || !reflect.DeepEqual(p, e.Payload) {
						t.Fatalf("%s: download-all returned entry %d as %v, stored %v", name, e.ID, p, e.Payload)
					}
				}
			}
		}
	}
}

// TestDiskServerRestartBeforeSnapshot is `simserver -storage disk -wal-dir`
// killed and restarted before its first snapshot: the new process replays
// the log into the bucket directory the old one filled. The fresh store hands
// out the same bucket IDs, and used to append the replayed entries to the old
// files (the next read failed with "holds N entries, expected M"). All four
// wire query kinds must answer as a server that never restarted.
func TestDiskServerRestartBeforeSnapshot(t *testing.T) {
	leaktest.Check(t)
	entries := testEntries(120)
	qDists := []float64{1, 2, 3, 4, 5, 6}
	perm := []int32{2, 0, 1, 3, 4, 5}
	for ranking, queries := range map[mindex.RankStrategy][]wire.BatchQuery{
		mindex.RankFootrule: {
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5},
			{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 15},
			{Kind: wire.BatchFirstCell, Perm: perm},
		},
		mindex.RankDistSum: {
			{Kind: wire.BatchRange, Dists: qDists, Radius: 5},
			{Kind: wire.BatchApproxDists, Dists: qDists, CandSize: 10},
			{Kind: wire.BatchFirstCell, Dists: qDists},
		},
	} {
		cfg := testCfg()
		cfg.Ranking = ranking
		cfg.Storage = mindex.StorageDisk
		// start opens the log in walDir, replays it into a new server on
		// diskPath — no snapshot is ever taken — and attaches it.
		start := func(diskPath, walDir string) (*Server, *wal.Log, net.Conn) {
			t.Helper()
			c := cfg
			c.DiskPath = diskPath
			l, recs, err := wal.Open(walDir, wal.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewEncrypted(c)
			if err != nil {
				t.Fatal(err)
			}
			srv.Logf = func(string, ...any) {}
			if err := wal.Replay(recs, srv.Index()); err != nil {
				t.Fatal(err)
			}
			srv.AttachWAL(l)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close(); l.Close() })
			return srv, l, dial(t, srv)
		}
		load := func(conn net.Conn) {
			t.Helper()
			for at := 0; at < len(entries); at += 40 {
				insertEntries(t, conn, entries[at:at+40])
			}
			refs := []mindex.Entry{{ID: entries[3].ID, Perm: entries[3].Perm}, {ID: entries[77].ID, Perm: entries[77].Perm}}
			if respType, _ := request(t, conn, wire.MsgDeleteEntries, wire.DeleteEntriesReq{Refs: refs}.Encode()); respType != wire.MsgDeleteAck {
				t.Fatalf("delete: got %v", respType)
			}
		}

		_, _, steady := start(t.TempDir(), t.TempDir())
		load(steady)
		want := batchQuery(t, steady, wire.BatchQueryReq{Queries: queries, Ranked: true})

		diskPath, walDir := t.TempDir(), t.TempDir()
		first, l, conn := start(diskPath, walDir)
		load(conn)
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, conn = start(diskPath, walDir)
		got := batchQuery(t, conn, wire.BatchQueryReq{Queries: queries, Ranked: true})
		for qi, q := range queries {
			if len(want[qi]) == 0 {
				t.Fatalf("%v kind=%d: the reference server returned nothing", ranking, q.Kind)
			}
			if !sameRanked(got[qi], want[qi]) {
				t.Fatalf("%v kind=%d: restarted server returned %d candidates, a never-restarted one %d",
					ranking, q.Kind, len(got[qi]), len(want[qi]))
			}
		}
	}
}

// TestDiskServerCrashAfterRestore is `simserver -storage disk -snapshot
// -wal-dir` restored from a snapshot, written to, and killed before its next
// snapshot. Since the restore its bucket files have grown past the counts
// the snapshot records, and splits have freed buckets the snapshot names;
// the restart must still load that snapshot and replay the log's tail onto
// it, holding every entry ever acknowledged. (It used to refuse to start:
// "bucket image holds more than 20 entries".)
func TestDiskServerCrashAfterRestore(t *testing.T) {
	leaktest.Check(t)
	entries := testEntries(240)
	cfg := testCfg()
	cfg.Storage = mindex.StorageDisk
	dir := t.TempDir()
	cfg.DiskPath = filepath.Join(dir, "buckets")
	snap, walDir := filepath.Join(dir, "snap"), filepath.Join(dir, "wal")
	// open starts a server as simserver does: from the snapshot when there
	// is one, then the log's replay.
	open := func() (*Server, *wal.Log) {
		t.Helper()
		exists, err := engine.SnapshotExists(cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		var srv *Server
		if exists {
			eng, err := engine.LoadSnapshot(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			srv = NewEncryptedWithEngine(eng)
		} else if srv, err = NewEncrypted(cfg); err != nil {
			t.Fatal(err)
		}
		l, recs, err := wal.Open(walDir, wal.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Replay(recs, srv.Index()); err != nil {
			t.Fatal(err)
		}
		srv.AttachWAL(l)
		return srv, l
	}
	var buf wire.Buffer
	insert := func(srv *Server, batch []mindex.Entry) {
		t.Helper()
		if _, _, err := srv.handle(wire.MsgIngestChunk, wire.IngestChunkReq{Entries: batch}.Encode(), time.Now(), &buf); err != nil {
			t.Fatal(err)
		}
	}

	srv, l := open()
	for at := 0; at < 120; at += 40 {
		insert(srv, entries[at:at+40])
	}
	if err := srv.Index().SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dead, deadLog := open()
	for at := 120; at < 240; at += 8 {
		insert(dead, entries[at:at+8])
	}
	// The process dies here: no snapshot, no Close, and the bucket store's
	// buffered appends are lost with it. Its descriptors close only after
	// the restart is checked.
	srv, l = open()
	defer func() {
		srv.Close()
		l.Close()
		dead.Close()
		deadLog.Close()
	}()
	all, err := srv.Index().AllEntries()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64][]byte, len(all))
	for _, e := range all {
		got[e.ID] = e.Payload
	}
	if len(all) != len(entries) || len(got) != len(entries) {
		t.Fatalf("restart holds %d entries (%d distinct), want %d", len(all), len(got), len(entries))
	}
	for _, e := range entries {
		if p, ok := got[e.ID]; !ok || !slices.Equal(p, e.Payload) {
			t.Fatalf("restart holds entry %d as %v, stored %v", e.ID, p, e.Payload)
		}
	}
}

// TestRefusedChunkLandsNothing: a WAL-backed server refuses an ingest
// chunk whose last entry is malformed, and the refusal lands nothing. The
// live index keeps its size, and a restart that replays the log holds
// exactly the IDs the live server held: a refused chunk is not logged, so
// an entry of it that the live index kept would be served until the
// restart and lost by it.
func TestRefusedChunkLandsNothing(t *testing.T) {
	leaktest.Check(t)
	entries := testEntries(120)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testCfg()
			cfg.Shards = shards
			walDir := t.TempDir()
			start := func() (*Server, *wal.Log, net.Conn) {
				t.Helper()
				l, recs, err := wal.Open(walDir, wal.SyncNever)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewEncrypted(cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv.Logf = func(string, ...any) {}
				if err := wal.Replay(recs, srv.Index()); err != nil {
					t.Fatal(err)
				}
				srv.AttachWAL(l)
				if err := srv.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close(); l.Close() })
				return srv, l, dial(t, srv)
			}
			ids := func(srv *Server) []uint64 {
				t.Helper()
				all, err := srv.Index().AllEntries()
				if err != nil {
					t.Fatal(err)
				}
				out := make([]uint64, len(all))
				for i, e := range all {
					out[i] = e.ID
				}
				slices.Sort(out)
				return out
			}

			srv, l, conn := start()
			insertEntries(t, conn, entries[:80])
			chunk := slices.Clone(entries[80:])
			chunk[39].Dists = chunk[39].Dists[:3]
			expectError(t, conn, wire.MsgIngestChunk, wire.IngestChunkReq{Entries: chunk}.Encode(), "pivot distances")
			if got := srv.Index().Size(); got != 80 {
				t.Fatalf("size after the refused chunk = %d, want 80", got)
			}
			want := ids(srv)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			restarted, _, _ := start()
			if got := ids(restarted); !slices.Equal(got, want) {
				t.Fatalf("restart holds %d IDs, the live server held %d", len(got), len(want))
			}
		})
	}
}

// sameRanked compares candidate lists up to nil-versus-empty, which the
// wire does not distinguish.
func sameRanked(a, b []mindex.RankedCandidate) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(normalize(a), normalize(b)))
}

// normalize maps an empty prefix to nil (the codec decodes a zero-length
// list as nil); candidates compare by their record bytes.
func normalize(rcs []mindex.RankedCandidate) []mindex.RankedCandidate {
	out := make([]mindex.RankedCandidate, len(rcs))
	for i, rc := range rcs {
		if len(rc.Prefix) == 0 {
			rc.Prefix = nil
		}
		out[i] = rc
	}
	return out
}

// TestHostileCandSize is the regression test for the one-frame kill: a
// candidate size straight off the wire used to size an allocation, so a
// 29-byte request asking for 2^31 candidates ended the process with an
// unrecoverable out-of-memory fault. The server must answer with an ordinary
// candidate set — everything it holds, at most — on an empty and a populated
// index, for a lone query and inside a batch, asked in promise order or in
// bound order.
func TestHostileCandSize(t *testing.T) {
	leaktest.Check(t)
	for _, populated := range []bool{false, true} {
		srv := startEncrypted(t)
		conn := dial(t, srv)
		held := 0
		if populated {
			held = 60
			insertTestEntries(t, conn, held)
		}
		perm := []int32{0, 1, 2, 3, 4, 5}
		for _, candSize := range []uint32{1 << 31, math.MaxUint32} {
			for _, hostile := range []wire.BatchQuery{
				{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: candSize},
				{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: math.Inf(1), CandSize: candSize},
			} {
				for _, ranked := range []bool{false, true} {
					lone := batchQuery(t, conn, wire.BatchQueryReq{Queries: []wire.BatchQuery{hostile}, Ranked: ranked})
					if len(lone) != 1 || len(lone[0]) != held {
						t.Fatalf("populated=%v candSize=%d: lone query returned %d candidates, want %d",
							populated, candSize, len(lone[0]), held)
					}
					mixed := batchQuery(t, conn, wire.BatchQueryReq{Ranked: ranked, Queries: []wire.BatchQuery{
						{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: 1},
						hostile,
						{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 5},
					}})
					if len(mixed) != 3 || len(mixed[1]) != held || len(mixed[2]) != min(5, held) {
						t.Fatalf("populated=%v candSize=%d: batch returned %d results (hostile: %d candidates)",
							populated, candSize, len(mixed), len(mixed[1]))
					}
				}
			}
		}
	}
}

// TestHostileCursor: a range query's cursor must be what a server can have
// sent — a finite, non-negative bound — and only a range query resumes
// after one. Anything else is an error response naming the query, and the
// connection stays usable.
func TestHostileCursor(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	insertTestEntries(t, conn, 30)
	dists := make([]float64, 6)
	for _, lb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
			{Kind: wire.BatchRange, Dists: dists, Radius: 1},
			{Kind: wire.BatchRange, Dists: dists, Radius: 1, After: &mindex.BoundKey{LB: lb, ID: 3}},
		}}.Encode(), "batch query 1: cursor bound")
	}
	for _, q := range []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: []int32{0, 1, 2, 3, 4, 5}, CandSize: 4},
		{Kind: wire.BatchFirstCell, Perm: []int32{0, 1, 2, 3, 4, 5}},
	} {
		q.After = &mindex.BoundKey{LB: 1, ID: 3}
		expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{q}}.Encode(),
			"cursor on a non-range query")
	}
	if got := batchQuery(t, conn, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: dists, Radius: 100, After: &mindex.BoundKey{LB: 0, ID: 0}},
	}}); len(got) != 1 || len(got[0]) != 30 {
		t.Fatalf("connection unusable after refused cursors, or a zero cursor dropped entries: %v", got)
	}
}

// TestHostileAllowList: an allow-list naming a pivot the index does not
// have is refused with an error response, whatever the query kind.
func TestHostileAllowList(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	for _, allow := range [][]int32{{6}, {-1}, {0, 1 << 20}} {
		expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{
			Queries: []wire.BatchQuery{{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: 1}},
			Allow:   allow,
		}.Encode(), "out of range")
		expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{
			Queries: []wire.BatchQuery{{Kind: wire.BatchAll}}, Allow: allow,
		}.Encode(), "out of range")
	}
	full := wire.BatchQueryReq{Queries: []wire.BatchQuery{{Kind: wire.BatchAll}}, Allow: []int32{1, 2}}.Encode()
	expectError(t, conn, wire.MsgBatchQuery, full[:len(full)-3], "") // truncated allow-list
}

// TestBatchQueryErrors: invalid sub-queries fail the whole batch with an
// error response naming the offending query.
func TestBatchQueryErrors(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: []int32{0, 0, 1, 2, 3, 4}, CandSize: 5},
	}}.Encode(), "batch query 0")
	// Malformed payload bytes are a codec error, not a crash.
	expectError(t, conn, wire.MsgBatchQuery, []byte{0xFF, 0xFF, 0xFF, 0xFF}, "")
}

// TestCellCountsDispatch: a count request is answered with the cell runs
// of the ranked reply the same request would get — hostile candidate sizes
// included, which count what the index holds — and a count request for a
// kind that does not trim to a candidate size is an error naming the query.
func TestCellCountsDispatch(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	insertTestEntries(t, conn, 60)
	perm := []int32{3, 1, 0, 2, 5, 4}
	queries := []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: perm, CandSize: 25},
		{Kind: wire.BatchApproxDists, Dists: []float64{1, 2, 3, 4, 5, 6}, CandSize: math.MaxUint32},
	}
	for _, allow := range [][]int32{nil, {0, 2, 3}} {
		ranked := batchQuery(t, conn, wire.BatchQueryReq{Queries: queries, Ranked: true, Allow: allow})
		respType, resp := request(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: queries, Counts: true, Allow: allow}.Encode())
		if respType != wire.MsgBatchCellCounts {
			t.Fatalf("count request answered with %v", respType)
		}
		m, err := wire.DecodeBatchCellCountsResp(resp, queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi, runs := range m.Results {
			at := 0
			for _, r := range runs {
				for _, rc := range ranked[qi][at : at+r.Count] {
					if rc.Promise != r.Promise || !slices.Equal(rc.Prefix, r.Prefix) {
						t.Fatalf("allow %v, query %d: candidate %d is not from the run's cell", allow, qi, at)
					}
				}
				at += r.Count
			}
			if at != len(ranked[qi]) {
				t.Fatalf("allow %v, query %d: runs count %d candidates, the ranked reply has %d", allow, qi, at, len(ranked[qi]))
			}
		}
	}
	for _, q := range []wire.BatchQuery{
		{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: 1},
		{Kind: wire.BatchFirstCell, Perm: perm},
		{Kind: wire.BatchRange, Dists: make([]float64, 6), Radius: math.Inf(1), CandSize: 4},
		{Kind: wire.BatchAll},
	} {
		expectError(t, conn, wire.MsgBatchQuery, wire.BatchQueryReq{Queries: []wire.BatchQuery{queries[0], q}, Counts: true}.Encode(),
			"batch query 1: mindex: cell counts need an approximate query")
	}
}

// TestShardedServer: a server over a sharded engine answers the protocol
// exactly like the default single-shard one.
func TestShardedServer(t *testing.T) {
	leaktest.Check(t)
	cfg := testCfg()
	cfg.Shards = 4
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := dial(t, srv)
	insertTestEntries(t, conn, 80)
	if got := srv.Index().NumShards(); got != 4 {
		t.Fatalf("NumShards = %d", got)
	}
	if got := srv.Index().Size(); got != 80 {
		t.Fatalf("Size = %d", got)
	}
	cands := batchQuery(t, conn, wire.BatchQueryReq{Queries: []wire.BatchQuery{
		{Kind: wire.BatchApproxPerm, Perm: []int32{1, 0, 2, 3, 4, 5}, CandSize: 20},
	}})[0]
	if len(cands) != 20 {
		t.Fatalf("sharded approx returned %d candidates, want 20", len(cands))
	}
}

// TestHostilePermutationInsert: a wire entry with a negative or
// out-of-range first permutation element must produce an error response —
// on a sharded server a negative shard index would otherwise panic the
// process (remote DoS).
func TestHostilePermutationInsert(t *testing.T) {
	leaktest.Check(t)
	cfg := testCfg()
	cfg.Shards = 4
	srv, err := NewEncrypted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := dial(t, srv)
	expectError(t, conn, wire.MsgIngestChunk, wire.IngestChunkReq{
		Entries: []mindex.Entry{{ID: 1, Perm: []int32{-1, 0, 1, 2, 3}}},
	}.Encode(), "out of range")
	// Server must still be alive and serving.
	insertTestEntries(t, conn, 10)
	if got := srv.Index().Size(); got != 10 {
		t.Fatalf("size after hostile insert = %d", got)
	}
}

// TestCloseRacingConnections: Close racing fresh connection registration
// must neither leak a connection nor deadlock — every accepted conn ends up
// closed (wire's TestServerCloseRacingConnections checks the registry).
func TestCloseRacingConnections(t *testing.T) {
	leaktest.Check(t)
	for round := range 20 {
		srv, err := NewEncrypted(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // listener already closed: fine
				}
				defer conn.Close()
				// Fire a request; the response may be an answer, a reset or
				// nothing depending on how far Close got. All are fine — only
				// leaks and races are not.
				_ = wire.WriteFrame(conn, wire.MsgBatchQuery, downloadAll)
				_, _, _ = wire.ReadFrame(conn)
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestStartAfterCloseRefused: a closed server must not come back to life
// with a fresh listener that nothing will ever close.
func TestStartAfterCloseRefused(t *testing.T) {
	leaktest.Check(t)
	srv, err := NewEncrypted(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("start after close succeeded")
	}
}

// TestStartTwiceRefused: a second Start must not replace the listener and
// connection registry of the first (leaked listener, orphaned conns).
func TestStartTwiceRefused(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	addr := srv.Addr()
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second start succeeded")
	}
	if srv.Addr() != addr {
		t.Fatalf("second start replaced the listener: %s -> %s", addr, srv.Addr())
	}
	// The original listener still serves.
	conn := dial(t, srv)
	respType, _ := request(t, conn, wire.MsgBatchQuery, downloadAll)
	if respType != wire.MsgBatchCandidates {
		t.Fatalf("server unhealthy after refused second start: %v", respType)
	}
}

func TestPipelinedRequests(t *testing.T) {
	leaktest.Check(t)
	srv := startEncrypted(t)
	conn := dial(t, srv)
	// Send several requests back to back before reading any response; the
	// server must answer them in order.
	for range 5 {
		if err := wire.WriteFrame(conn, wire.MsgBatchQuery, downloadAll); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		respType, _, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if respType != wire.MsgBatchCandidates {
			t.Fatalf("pipelined response = %v", respType)
		}
	}
}

package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

// Fuzz targets for every untrusted parsing surface of the protocol. Under
// plain `go test` they run their seed corpus; `go test -fuzz=FuzzX` explores
// further. The invariant everywhere: decoders never panic, never over-read,
// and accept exactly what the encoders produce.

func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}))
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 2, Dists: []float64{1, 2}, Vec: metric.Vector{3}}))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := mindex.DecodeEntry(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("decoder grew the buffer")
		}
		// Whatever decoded must re-encode to the consumed bytes.
		consumed := data[:len(data)-len(rest)]
		if !bytes.Equal(mindex.EncodeEntry(e), consumed) {
			t.Fatalf("re-encoding mismatch for %d consumed bytes", len(consumed))
		}
	})
}

// FuzzScanEntry: the by-reference scanner accepts exactly the inputs the
// copying decoder accepts and reports the same record — field for field, and
// as a span that is byte for byte what AppendEntry writes for the decoded
// entry.
func FuzzScanEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}))
	f.Add(mindex.EncodeEntry(mindex.Entry{ID: 2, Dists: []float64{1, 2}, Vec: metric.Vector{3}}))
	full := mindex.EncodeEntry(mindex.Entry{ID: 3, Perm: []int32{2, 0, 1}, Dists: []float64{0.5}, Payload: []byte{7, 8}, Vec: metric.Vector{1, 2}})
	f.Add(append(full, 0xAA, 0xBB)) // trailing bytes stay in rest
	f.Add(full[:len(full)-1])       // truncated record
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := mindex.DecodeEntry(data)
		v, vrest, verr := mindex.ScanEntry(data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("DecodeEntry err %v, ScanEntry err %v", err, verr)
		}
		if err != nil {
			return
		}
		if len(rest) != len(vrest) {
			t.Fatalf("DecodeEntry left %d bytes, ScanEntry %d", len(rest), len(vrest))
		}
		if !bytes.Equal(v.Record, mindex.AppendEntry(nil, e)) {
			t.Fatal("record span differs from the re-encoded entry")
		}
		// The fields, read through the view, are the decoded entry's.
		if v.ID != e.ID {
			t.Fatalf("view ID %d, entry ID %d", v.ID, e.ID)
		}
		perm, dists, payload, vec := v.Perm(), v.Dists(), v.Payload(), v.Vec()
		if len(perm) != 4*len(e.Perm) || len(dists) != 8*len(e.Dists) || len(vec) != 4*len(e.Vec) {
			t.Fatalf("view field lengths %d/%d/%d for %d perm, %d dists, %d vec",
				len(perm), len(dists), len(vec), len(e.Perm), len(e.Dists), len(e.Vec))
		}
		if !bytes.Equal(payload, e.Payload) {
			t.Fatal("view payload differs")
		}
		// Each field, re-encoded on its own, is the span the view reports.
		only := func(e mindex.Entry) mindex.EntryView {
			v, _, err := mindex.ScanEntry(mindex.AppendEntry(nil, e))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		if p := only(mindex.Entry{Perm: e.Perm}); !bytes.Equal(perm, p.Perm()) {
			t.Fatal("view permutation differs")
		}
		if d := only(mindex.Entry{Dists: e.Dists}); !bytes.Equal(dists, d.Dists()) {
			t.Fatal("view distances differ")
		}
		if x := only(mindex.Entry{Vec: e.Vec}); !bytes.Equal(vec, x.Vec()) {
			t.Fatal("view vector differs")
		}
	})
}

// boundQueries is a request of eight queries whose i-th is a BatchBound
// query when bit i of mask is set (its flat reply result then carries a
// bound trailer) and a range query otherwise.
func boundQueries(mask uint8) []BatchQuery {
	qs := make([]BatchQuery, 8)
	for i := range qs {
		qs[i].Kind = BatchRange
		if mask&(1<<i) != 0 {
			qs[i].Kind = BatchBound
		}
	}
	return qs
}

// FuzzDecodeRankedRefs: the by-reference reply decoders agree with the
// copying ones on every input — both refuse it, or both report the same
// candidates (and, on a flat reply to the bound queries mask names, the same
// bounds).
func FuzzDecodeRankedRefs(f *testing.F) {
	ranked := BatchRankedResp{ServerNanos: 2, Results: [][]mindex.RankedCandidate{
		{
			{Entry: mindex.ViewOf(mindex.Entry{ID: 3, Perm: []int32{1, 0}, Payload: []byte{1, 2, 3}}), Promise: 0.5, Prefix: []int32{1}},
			{Entry: mindex.ViewOf(mindex.Entry{ID: 4, Perm: []int32{1, 0}, Payload: []byte{4}}), Promise: 0.5, Prefix: []int32{1}},
			{Entry: mindex.ViewOf(mindex.Entry{ID: 5, Perm: []int32{0, 1}, Dists: []float64{1, 2}}), Promise: 0.75, Prefix: []int32{0, 1}},
		},
		nil,
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 6})}}, // a range candidate: promise 0, nil prefix
	}}
	f.Add(ranked.Encode(), uint8(0))
	var flat Buffer
	ranked.AppendFlatTo(&flat, nil)
	f.Add(flat.B, uint8(0))
	// The flat reply with a bound trailer after results 0 and 1 — the second
	// an empty bound result — and a truncated trailer.
	var bounded Buffer
	ranked.AppendFlatTo(&bounded, boundQueries(0b011))
	f.Add(bounded.B, uint8(0b011))
	f.Add(bounded.B[:len(bounded.B)-3], uint8(0b111))
	f.Add(CandidatesResp{ServerNanos: 1, DistNanos: 2, Entries: []mindex.Entry{{ID: 9, Perm: []int32{0}, Payload: []byte{5}}}}.Encode(), uint8(0))
	// TestBatchRankedRespHostileCount's payload: an absurd result count.
	var hostile Buffer
	hostile.U64(0)
	hostile.U32(0xFFFFFFFF)
	f.Add(hostile.B, uint8(0xFF))
	// A candidate count larger than the payload could hold.
	var lying Buffer
	lying.U64(0)
	lying.U32(1)
	lying.U32(1 << 20)
	f.Add(lying.B, uint8(1))
	// A truncated record, and a prefix length pointing past the end.
	enc := ranked.Encode()
	f.Add(enc[:len(enc)-3], uint8(0))
	var prefix Buffer
	prefix.U64(0)
	prefix.U32(1)
	prefix.U32(1)
	prefix.F64(0.5)
	prefix.U32(1 << 16) // prefix length
	prefix.B = append(prefix.B, make([]byte, 40)...)
	f.Add(prefix.B, uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		var refs CandidateRefs
		sameFloat := func(a, b float64) bool { return a == b || (a != a && b != b) }

		want, err := DecodeBatchRankedResp(data)
		rerr := refs.DecodeRanked(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ranked: copying decoder err %v, by-reference err %v", err, rerr)
		}
		if err == nil {
			if refs.ServerNanos != want.ServerNanos || len(refs.Results) != len(want.Results) {
				t.Fatalf("ranked: header %d/%d results, want %d/%d",
					refs.ServerNanos, len(refs.Results), want.ServerNanos, len(want.Results))
			}
			for qi, rcs := range want.Results {
				if len(refs.Results[qi]) != len(rcs) {
					t.Fatalf("ranked result %d: %d candidates, want %d", qi, len(refs.Results[qi]), len(rcs))
				}
				for i, rc := range rcs {
					ref := refs.Results[qi][i]
					if !sameFloat(ref.Promise, rc.Promise) || !slices.Equal(ref.Prefix, rc.Prefix) || (ref.Prefix == nil) != (rc.Prefix == nil) {
						t.Fatalf("ranked result %d candidate %d: annotations (%v, %v), want (%v, %v)",
							qi, i, ref.Promise, ref.Prefix, rc.Promise, rc.Prefix)
					}
					checkRef(t, ref, rc.Entry.Decode())
				}
			}
		}

		queries := boundQueries(mask)
		flatWant, err := DecodeBatchQueryResp(data, queries)
		rerr = refs.DecodeFlat(data, queries)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("flat: copying decoder err %v, by-reference err %v", err, rerr)
		}
		if err == nil {
			if refs.ServerNanos != flatWant.ServerNanos || len(refs.Results) != len(flatWant.Results) ||
				len(refs.Bounds) != len(flatWant.Bounds) {
				t.Fatal("flat: header differs")
			}
			for qi, entries := range flatWant.Results {
				if len(refs.Results[qi]) != len(entries) {
					t.Fatalf("flat result %d: %d candidates, want %d", qi, len(refs.Results[qi]), len(entries))
				}
				if !sameFloat(refs.Bounds[qi], flatWant.Bounds[qi]) {
					t.Fatalf("flat result %d: bound %v, want %v", qi, refs.Bounds[qi], flatWant.Bounds[qi])
				}
				for i, e := range entries {
					checkRef(t, refs.Results[qi][i], e)
				}
			}
		}

		all, err := DecodeCandidatesResp(data)
		n, records, rerr := ScanCandidatesResp(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("candidates: copying decoder err %v, scan err %v", err, rerr)
		}
		if err == nil {
			var enc []byte
			for _, e := range all.Entries {
				enc = mindex.AppendEntry(enc, e)
			}
			if n != len(all.Entries) || !bytes.Equal(records, enc) {
				t.Fatalf("candidates: scan reports %d entries in %d bytes, want %d in %d",
					n, len(records), len(all.Entries), len(enc))
			}
		}
	})
}

// checkRef compares one by-reference candidate with the entry the copying
// decoder produced for the same bytes.
func checkRef(t *testing.T, ref CandidateRef, e mindex.Entry) {
	t.Helper()
	if ref.ID != e.ID || !bytes.Equal(ref.Payload, e.Payload) || !bytes.Equal(ref.Record, mindex.AppendEntry(nil, e)) {
		t.Fatalf("candidate %d: by-reference form differs from decoded entry %d", ref.ID, e.ID)
	}
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgAck, []byte{1, 2, 3})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 5})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	// A header claiming (almost) MaxFrameSize with nothing behind it: must
	// fail on the missing body, not allocate it (TestReadFrameLyingLength).
	f.Add([]byte{0x3F, 0xFF, 0xFF, 0xFF, 0x17})
	f.Add(append([]byte{0x3F, 0xFF, 0xFF, 0xFF, 0x17}, 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Round trip: writing the frame back must produce a prefix of data.
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

func FuzzDecodeRequests(f *testing.F) {
	f.Add(InsertEntriesReq{Entries: []mindex.Entry{{ID: 1, Perm: []int32{0}}}}.Encode())
	f.Add(PutNodesReq{RootID: 1, Nodes: []EHINode{{ID: 1, Blob: []byte{2}}}}.Encode())
	f.Add(PutFDHReq{Items: []FDHItem{{Key: 3, Payload: []byte{4}}}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchRange, Dists: []float64{1}, Radius: 2},
		{Kind: BatchApproxPerm, Perm: []int32{0, 1}, CandSize: 3},
	}}.Encode())
	// The two phases of a precise k-NN: a bound query (with a hostile
	// candidate size), then a range query resumed after a cursor — and
	// cursors the index must refuse: on a non-range query, with a NaN, an
	// infinite or a negative bound, and a trailer naming a query twice or
	// one past the end.
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchBound, Dists: []float64{1, 2}, CandSize: 1 << 31},
	}}.Encode())
	after := BatchQueryReq{Ranked: true, Queries: []BatchQuery{
		{Kind: BatchApproxPerm, Perm: []int32{1, 0}, CandSize: 2},
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3, After: &mindex.BoundKey{LB: 0.5, ID: 7}},
	}}.Encode()
	f.Add(after)
	for _, lb := range []float64{math.NaN(), math.Inf(1), -1} {
		f.Add(BatchQueryReq{Queries: []BatchQuery{
			{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3, After: &mindex.BoundKey{LB: lb, ID: 1}},
		}}.Encode())
	}
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchBound, Dists: []float64{1, 2}, CandSize: 4, After: &mindex.BoundKey{LB: 1, ID: 1}},
	}}.Encode())
	f.Add(append(after[:len(after)-20], 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16))
	f.Add(append(after[:len(after)-20], 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16))
	// The unified read request under hostile trailers: an allow-list naming
	// an out-of-range and a negative pivot (decodes; the server's filter
	// construction must refuse it), one whose count exceeds the payload, an
	// unknown query kind, and a download-all payload that is a truncated
	// allow-list.
	lone := []BatchQuery{{Kind: BatchApproxPerm, Perm: []int32{1, 0}, CandSize: 1 << 31}}
	f.Add(BatchQueryReq{Queries: lone, Ranked: true, Allow: []int32{0, 3, 5}}.Encode())
	f.Add(BatchQueryReq{Queries: lone, Allow: []int32{1 << 20, -1}}.Encode())
	f.Add(BatchQueryReq{Queries: lone, Allow: []int32{}}.Encode())
	f.Add(append(BatchQueryReq{Queries: lone}.Encode(), 2, 0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0))
	f.Add([]byte{1, 0, 0, 0, 99})
	f.Add(DownloadAllReq{Allow: []int32{2, 4}}.Encode()[:7])
	var flat Buffer
	BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{0}})}},
	}}.AppendFlatTo(&flat, nil)
	f.Add(flat.B)
	var boundFlat Buffer
	BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{0}}), Promise: 0.25}}, nil,
	}}.AppendFlatTo(&boundFlat, boundQueries(0xFF))
	f.Add(boundFlat.B)
	f.Add(DeleteEntriesReq{Refs: []mindex.Entry{
		{ID: 7, Perm: []int32{1, 0, 2}},
		{ID: 8, Perm: []int32{2, 1, 0}},
	}}.Encode())
	f.Add(DeleteAckResp{ServerNanos: 9, Deleted: 2}.Encode())
	f.Add(HelloResp{Mode: HelloModeEncrypted, NumPivots: 16, MaxLevel: 8,
		BucketCapacity: 200, Ranking: 1, EagerRootSplit: true, Shards: 4, Entries: 12}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchFirstCell, Perm: []int32{1, 0}}}}.Encode())
	f.Add(BatchRankedResp{ServerNanos: 2, Results: [][]mindex.RankedCandidate{{
		{Entry: mindex.ViewOf(mindex.Entry{ID: 3, Perm: []int32{1, 0}}), Promise: 0.5, Prefix: []int32{1}},
	}}}.Encode())
	f.Add(DeleteObjectsReq{IDs: []uint64{1, 2, 3}}.Encode())
	f.Add(FirstCellPlainReq{Q: metric.Vector{1, 2}, K: 4}.Encode())
	f.Add(ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}}},
		{Op: ResyncDelete, Entries: []mindex.Entry{{ID: 2, Perm: []int32{1}}}},
	}}.Encode())
	f.Add(IngestChunkReq{Seq: 1, Entries: []mindex.Entry{{ID: 4, Perm: []int32{1, 0}, Payload: []byte{8}}}}.Encode())
	f.Add(IngestObjChunkReq{Seq: 2, Objects: []metric.Object{{ID: 5, Vec: metric.Vector{1, 2}}}}.Encode())
	f.Add(IngestChunkAckResp{Seq: 3, ServerNanos: 77}.Encode())
	f.Add(IngestEndReq{}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic; errors are fine.
		_, _ = DecodeInsertEntriesReq(data)
		_, _ = DecodeInsertObjectsReq(data)
		_, _ = DecodeRangePlainReq(data)
		_, _ = DecodeKNNPlainReq(data)
		_, _ = DecodeApproxPlainReq(data)
		_, _ = DecodeCandidatesResp(data)
		_, _ = DecodeResultsResp(data)
		_, _ = DecodeAckResp(data)
		_, _ = DecodeErrorResp(data)
		_, _ = DecodePutNodesReq(data)
		_, _ = DecodeGetNodeReq(data)
		_, _ = DecodeNodeBlobResp(data)
		_, _ = DecodePutFDHReq(data)
		_, _ = DecodeFDHQueryReq(data)
		if req, err := DecodeBatchQueryReq(data); err == nil {
			// The one read request: what decodes must re-encode to the same
			// bytes, and giving it its index meaning must not panic either —
			// hostile pivots and permutations become errors.
			if !bytes.Equal(req.Encode(), data) {
				t.Fatal("batch query request re-encoding mismatch")
			}
			filter, _ := mindex.NewPivotFilter(8, req.Allow)
			for _, q := range req.Queries {
				_, _ = q.IndexQuery(8, filter)
			}
		}
		if req, err := DecodeDownloadAllReq(data); err == nil {
			_, _ = mindex.NewPivotFilter(8, req.Allow)
		}
		_, _ = DecodeBatchQueryResp(data, nil)
		_, _ = DecodeBatchQueryResp(data, boundQueries(0xFF))
		_, _ = DecodeDeleteEntriesReq(data)
		_, _ = DecodeDeleteAckResp(data)
		_, _ = DecodeHelloResp(data)
		_, _ = DecodeBatchRankedResp(data)
		_, _ = DecodeDeleteObjectsReq(data)
		_, _ = DecodeFirstCellPlainReq(data)
		_, _ = DecodeResyncReq(data)
		_, _ = DecodeIngestChunkReq(data)
		_, _ = DecodeIngestObjChunkReq(data)
		_, _ = DecodeIngestChunkAckResp(data)
		_, _ = DecodeIngestEndReq(data)
	})
}

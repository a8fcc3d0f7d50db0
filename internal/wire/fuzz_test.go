package wire

import (
	"bytes"
	"encoding/binary"
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
	f.Add(recordWithVec())
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
	f.Add(recordWithVec())
	full := mindex.EncodeEntry(mindex.Entry{ID: 3, Perm: []int32{2, 0, 1}, Dists: []float64{0.5}, Payload: []byte{7, 8}})
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
		perm, dists, payload := v.Perm(), v.Dists(), v.Payload()
		if len(perm) != 4*len(e.Perm) || len(dists) != 8*len(e.Dists) {
			t.Fatalf("view field lengths %d/%d for %d perm, %d dists",
				len(perm), len(dists), len(e.Perm), len(e.Dists))
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
	})
}

// recordWithVec is an entry record whose trailing vector count claims one
// element, as the plain deployment once stored: the decoders must refuse it.
func recordWithVec() []byte {
	rec := mindex.EncodeEntry(mindex.Entry{ID: 2, Dists: []float64{1, 2}})
	return append(rec[:len(rec)-4], 1, 0, 0, 0, 0, 0, 0x40, 0x40)
}

// pageQueries is a request of eight queries whose i-th is an approximate
// query when bit i of mask is set (its flat reply result then carries no
// trailer) and a range query otherwise (a page trailer).
func pageQueries(mask uint8) []BatchQuery {
	qs := make([]BatchQuery, 8)
	for i := range qs {
		qs[i].Kind = BatchRange
		if mask&(1<<i) != 0 {
			qs[i].Kind = BatchApproxPerm
		}
	}
	return qs
}

// FuzzDecodeRankedRefs: the by-reference reply decoders agree with the
// copying ones on every input — both refuse it, or both report the same
// candidates (and, on a flat reply to the range queries mask leaves, the
// same pages).
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
	// Protocol v8's page cut at a candidate size: result 0 holds the three
	// candidates its query asks for, so its page is full, and result 1 is
	// an empty page — then the same reply read with results 0 and 1 taken
	// for approximate ones, and a truncated trailer.
	var counted Buffer
	cut := pageQueries(0)
	cut[0].CandSize = 3
	ranked.AppendFlatTo(&counted, cut)
	f.Add(counted.B, uint8(0))
	f.Add(counted.B, uint8(0b011))
	f.Add(counted.B[:len(counted.B)-3], uint8(0b100))
	// Protocol v7's range pages: a full page, whose records reach
	// PageBytes, then a short one — and the full page's trailer with a flag
	// byte no encoder writes.
	big := mindex.ViewOf(mindex.Entry{ID: 8, Payload: make([]byte, PageBytes)})
	var paged Buffer
	BatchRankedResp{Results: [][]mindex.RankedCandidate{{{Entry: big, Promise: 0.5}}, ranked.Results[0]}}.AppendFlatTo(&paged, pageQueries(0))
	f.Add(paged.B, uint8(0))
	bad := bytes.Clone(paged.B)
	bad[8+4+4+len(big.Record)] = 2
	f.Add(bad, uint8(0))
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

		queries := pageQueries(mask)
		flatWant, err := DecodeBatchQueryResp(data, queries)
		rerr = refs.DecodeFlat(data, queries)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("flat: copying decoder err %v, by-reference err %v", err, rerr)
		}
		if err == nil {
			if refs.ServerNanos != flatWant.ServerNanos || len(refs.Results) != len(flatWant.Results) ||
				len(refs.Pages) != len(flatWant.Pages) {
				t.Fatal("flat: header differs")
			}
			for qi, entries := range flatWant.Results {
				if len(refs.Results[qi]) != len(entries) {
					t.Fatalf("flat result %d: %d candidates, want %d", qi, len(refs.Results[qi]), len(entries))
				}
				if p, w := refs.Pages[qi], flatWant.Pages[qi]; p.Full != w.Full || p.Last.ID != w.Last.ID || !sameFloat(p.Last.LB, w.Last.LB) {
					t.Fatalf("flat result %d: page %+v, want %+v", qi, p, w)
				}
				for i, e := range entries {
					checkRef(t, refs.Results[qi][i], e)
				}
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
	// The keyed blob store: a put, a get, a reply, and hostile forms — a blob
	// count larger than the payload, a reply claiming more lists than it
	// carries (the fuzz body also refuses every reply against a key count
	// other than its own).
	puts := PutBlobsReq{Space: SpaceFDH, Items: []Blob{{Key: 3, Data: []byte{4}}, {Key: 3}, {Key: 5, Data: []byte{6, 7}}}}.Encode()
	f.Add(puts)
	f.Add(append([]byte{SpaceRaw, 0, 0, 0x10, 0}, puts[5:]...))
	f.Add(GetBlobsReq{Space: SpaceEHI, Keys: []uint64{1, 2}}.Encode())
	blobs := BlobsResp{ServerNanos: 3, Lists: [][][]byte{{{1, 2}}, nil}}.Encode()
	f.Add(blobs)
	f.Add(append(append(bytes.Clone(blobs[:8]), 3, 0, 0, 0), blobs[12:]...))
	f.Add(append(bytes.Clone(blobs[:12]), 0xFF, 0xFF, 0xFF, 0x7F))
	// The plain query, one kind after another, and a kind nobody defined.
	for kind := range uint8(6) {
		f.Add(PlainQueryReq{Kind: kind, Q: metric.Vector{1, 2}, Radius: 3, K: 4, CandSize: 5}.Encode())
	}
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchRange, Dists: []float64{1}, Radius: 2},
		{Kind: BatchApproxPerm, Perm: []int32{0, 1}, CandSize: 3},
	}}.Encode())
	// The two phases of a precise k-NN: a range of radius +Inf cut at a
	// (hostile) candidate size, then a range query resumed after a cursor —
	// and cursors the index must refuse: on a non-range query, with a NaN,
	// an infinite or a negative bound, and a trailer naming a query twice or
	// one past the end.
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: math.Inf(1), CandSize: 1 << 31},
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
		{Kind: BatchApproxDists, Dists: []float64{1, 2}, CandSize: 4, After: &mindex.BoundKey{LB: 1, ID: 1}},
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
	// Download-all is a query kind: alone, filtered, beside other kinds —
	// and carrying a cursor, which IndexQuery must refuse; then the kind
	// byte of v7's bound query, now unknown.
	all := []BatchQuery{{Kind: BatchAll}}
	f.Add(BatchQueryReq{Queries: all}.Encode())
	f.Add(BatchQueryReq{Queries: all, Ranked: true, Allow: []int32{2, 4}}.Encode())
	f.Add(BatchQueryReq{Queries: append(lone, all[0], all[0])}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchAll, After: &mindex.BoundKey{LB: 1, ID: 2}}}}.Encode())
	f.Add([]byte{1, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0x40, 4, 0, 0, 0})
	// The count wave of a cluster read: approximate queries asking for cell
	// runs, filtered as a replicated coordinator sends them, and the flag
	// beside a range query, which the server must refuse.
	f.Add(BatchQueryReq{Queries: lone, Counts: true}.Encode())
	f.Add(BatchQueryReq{Queries: lone, Counts: true, Allow: []int32{0, 2}}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchApproxDists, Dists: []float64{1, 2}, CandSize: 400},
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3},
	}, Counts: true}.Encode())
	var flat Buffer
	BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{0}})}},
	}}.AppendFlatTo(&flat, nil)
	f.Add(flat.B)
	// A precise k-NN's first page, full at its candidate size.
	var countFlat Buffer
	cut := pageQueries(0)
	cut[0].CandSize = 1
	BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 1, Perm: []int32{0}}), Promise: 0.25}}, nil,
	}}.AppendFlatTo(&countFlat, cut)
	f.Add(countFlat.B)
	// A range query read in pages: the request of a later page resumes the
	// bound order after the last key of the one before (the cursor), and the
	// reply to it ends in a page trailer, here a full page's.
	f.Add(BatchQueryReq{Queries: []BatchQuery{
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3, After: &mindex.BoundKey{LB: 0, ID: 1 << 40}},
		{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 3},
	}}.Encode())
	var pageFlat Buffer
	BatchRankedResp{ServerNanos: 1, Results: [][]mindex.RankedCandidate{
		{{Entry: mindex.ViewOf(mindex.Entry{ID: 2, Payload: make([]byte, PageBytes)}), Promise: 0.125}}, nil,
	}}.AppendFlatTo(&pageFlat, pageQueries(0))
	f.Add(pageFlat.B)
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
	f.Add(ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{{ID: 1, Perm: []int32{0, 1}, Payload: []byte{9}}}},
		{Op: ResyncDelete, Entries: []mindex.Entry{{ID: 2, Perm: []int32{1}}}},
	}}.Encode())
	f.Add(IngestChunkReq{Seq: 1, Entries: []mindex.Entry{{ID: 4, Perm: []int32{1, 0}, Payload: []byte{8}}}}.Encode())
	f.Add(IngestObjChunkReq{Seq: 2, Objects: []metric.Object{{ID: 5, Vec: metric.Vector{1, 2}}}}.Encode())
	// A chunk ack with the server's distance time, and the same ack cut to
	// the protocol-v4 length (no distance time), which must not decode.
	ack := IngestChunkAckResp{Seq: 3, ServerNanos: 77, DistNanos: 5}.Encode()
	f.Add(ack)
	f.Add(ack[:12])
	f.Add(IngestEndReq{}.Encode())
	// An end-of-ingest ack, and one in the protocol-v5 shape that still
	// carried a distance time, which must not decode.
	f.Add(AckResp{ServerNanos: 4}.Encode())
	f.Add(append(AckResp{ServerNanos: 4}.Encode(), 5, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// None of these may panic; errors are fine.
		_, _ = DecodeCandidatesResp(data)
		_, _ = DecodeResultsResp(data)
		_, _ = DecodeAckResp(data)
		_, _ = DecodeErrorResp(data)
		// The blob store's and the plain query's messages: what decodes
		// re-encodes to the same bytes, and a reply decodes only against the
		// number of keys it answers.
		if req, err := DecodePutBlobsReq(data); err == nil && !bytes.Equal(req.Encode(), data) {
			t.Fatal("put-blobs request re-encoding mismatch")
		}
		if req, err := DecodeGetBlobsReq(data); err == nil && !bytes.Equal(req.Encode(), data) {
			t.Fatal("get-blobs request re-encoding mismatch")
		}
		if len(data) >= 12 {
			lists := int(binary.LittleEndian.Uint32(data[8:]))
			if resp, err := DecodeBlobsResp(data, lists); err == nil {
				if !bytes.Equal(resp.Encode(), data) {
					t.Fatal("blobs reply re-encoding mismatch")
				}
				if _, err := DecodeBlobsResp(data, lists+1); err == nil {
					t.Fatalf("a reply of %d lists decoded as the answer to %d keys", lists, lists+1)
				}
			}
		}
		if req, err := DecodePlainQueryReq(data); err == nil && !bytes.Equal(req.Encode(), data) {
			t.Fatal("plain query request re-encoding mismatch")
		}
		if req, err := DecodeBatchQueryReq(data); err == nil {
			// The one read request: what decodes must re-encode to the same
			// bytes, and giving it its index meaning must not panic either —
			// hostile pivots and permutations become errors.
			if !bytes.Equal(req.Encode(), data) {
				t.Fatal("batch query request re-encoding mismatch")
			}
			// Only a range query resumes after a cursor.
			filter, _ := mindex.NewPivotFilter(8, req.Allow)
			for i, q := range req.Queries {
				if _, err := q.IndexQuery(8, filter); err == nil && q.After != nil && q.Kind != BatchRange {
					t.Fatalf("query %d of kind %d accepted a cursor", i, q.Kind)
				}
			}
		}
		_, _ = DecodeBatchQueryResp(data, nil)
		_, _ = DecodeBatchQueryResp(data, pageQueries(0xFF))
		_, _ = DecodeBatchQueryResp(data, pageQueries(0))
		_, _ = DecodeDeleteEntriesReq(data)
		_, _ = DecodeDeleteAckResp(data)
		_, _ = DecodeHelloResp(data)
		_, _ = DecodeBatchRankedResp(data)
		_, _ = DecodeDeleteObjectsReq(data)
		_, _ = DecodeResyncReq(data)
		_, _ = DecodeIngestChunkReq(data)
		_, _ = DecodeIngestObjChunkReq(data)
		_, _ = DecodeIngestChunkAckResp(data)
		_, _ = DecodeIngestEndReq(data)
	})
}

// FuzzDecodeCellCounts: the count reply's decoder never panics, allocates
// only what the payload's bytes can hold, and accepts nothing a merge could
// be misled by — whatever decodes holds one result per query, positive
// counts within the candidate size, numbers for promises and runs in
// (promise, prefix) order, and re-encodes to the same bytes.
func FuzzDecodeCellCounts(f *testing.F) {
	good := BatchCellCountsResp{ServerNanos: 5, Results: [][]mindex.CellRun{
		{{Promise: 0.5, Prefix: []int32{1}, Count: 3}, {Promise: 0.5, Prefix: []int32{1, 2}, Count: 4}, {Promise: 1.5, Prefix: []int32{0, 3}, Count: 2}},
		nil,
	}}.Encode()
	f.Add(good, uint32(9))
	f.Add(good, uint32(8)) // counts past the candidate size
	for _, bad := range [][]mindex.CellRun{
		{{Promise: 1, Prefix: []int32{1}, Count: 1}, {Promise: 0.5, Prefix: []int32{2}, Count: 1}}, // promise order
		{{Promise: 1, Prefix: []int32{2}, Count: 1}, {Promise: 1, Prefix: []int32{1}, Count: 1}},   // prefix order
		{{Promise: math.NaN(), Prefix: []int32{1}, Count: 1}},
		{{Promise: 1, Prefix: []int32{1}, Count: 0}},
		{{Promise: 1, Prefix: []int32{1}, Count: math.MaxUint32}, {Promise: 2, Prefix: []int32{1}, Count: 2}},
	} {
		f.Add(BatchCellCountsResp{Results: [][]mindex.CellRun{bad}}.Encode(), uint32(math.MaxUint32))
	}
	var lying Buffer // a billion runs in a few bytes
	lying.U64(0)
	lying.U32(1)
	lying.U32(1 << 30)
	lying.F64(1)
	f.Add(lying.B, uint32(10))
	f.Add([]byte{}, uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, candSize uint32) {
		queries := make([]BatchQuery, 0, 2)
		if len(data) >= 12 {
			for range min(binary.LittleEndian.Uint32(data[8:]), 2) {
				queries = append(queries, BatchQuery{Kind: BatchApproxPerm, CandSize: candSize})
			}
		}
		var m BatchCellCountsResp
		if err := m.Decode(data, queries); err != nil {
			return
		}
		if len(m.runs) > len(data)/16 || len(m.prefixes) > len(data)/4 {
			t.Fatalf("%d runs and %d prefix elements out of %d bytes", len(m.runs), len(m.prefixes), len(data))
		}
		if len(m.Results) != len(queries) {
			t.Fatalf("%d results for %d queries", len(m.Results), len(queries))
		}
		for qi, runs := range m.Results {
			total := 0
			for i, r := range runs {
				total += r.Count
				if r.Count <= 0 || r.Promise != r.Promise {
					t.Fatalf("query %d run %d: %+v", qi, i, r)
				}
				if i > 0 && (r.Promise < runs[i-1].Promise || r.Promise == runs[i-1].Promise && mindex.PrefixLess(r.Prefix, runs[i-1].Prefix)) {
					t.Fatalf("query %d: run %d out of order", qi, i)
				}
			}
			if total > int(candSize) {
				t.Fatalf("query %d: %d candidates counted, candidate size %d", qi, total, candSize)
			}
		}
		if !bytes.Equal(m.Encode(), data) {
			t.Fatal("cell counts re-encoding mismatch")
		}
	})
}

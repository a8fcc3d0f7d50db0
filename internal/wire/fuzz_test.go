package wire

import (
	"bytes"
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

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgAck, []byte{1, 2, 3})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 5})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
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
		{{Entry: mindex.Entry{ID: 1, Perm: []int32{0}}}},
	}}.AppendFlatTo(&flat)
	f.Add(flat.B)
	f.Add(DeleteEntriesReq{Refs: []mindex.Entry{
		{ID: 7, Perm: []int32{1, 0, 2}},
		{ID: 8, Perm: []int32{2, 1, 0}},
	}}.Encode())
	f.Add(DeleteAckResp{ServerNanos: 9, Deleted: 2}.Encode())
	f.Add(HelloResp{Mode: HelloModeEncrypted, NumPivots: 16, MaxLevel: 8,
		BucketCapacity: 200, Ranking: 1, EagerRootSplit: true, Shards: 4, Entries: 12}.Encode())
	f.Add(BatchQueryReq{Queries: []BatchQuery{{Kind: BatchFirstCell, Perm: []int32{1, 0}}}}.Encode())
	f.Add(BatchRankedResp{ServerNanos: 2, Results: [][]mindex.RankedCandidate{{
		{Entry: mindex.Entry{ID: 3, Perm: []int32{1, 0}}, Promise: 0.5, Prefix: []int32{1}},
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
		_, _ = DecodeBatchQueryResp(data)
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

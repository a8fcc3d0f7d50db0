package wire

import (
	"bytes"
	"net"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

func TestBufferReaderRoundTrip(t *testing.T) {
	var b Buffer
	b.U8(7)
	b.U32(1 << 20)
	b.U64(1 << 40)
	b.F64(3.25)
	b.Bytes([]byte{1, 2, 3})
	b.String("hello")
	b.F64Slice([]float64{1.5, -2.5})
	b.I32Slice([]int32{-1, 0, 7})
	b.Vec(metric.Vector{1, 2, 3.5})

	r := NewReader(b.B)
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U32(); got != 1<<20 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Fatalf("F64 = %g", got)
	}
	if got := r.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.StringField(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.F64Slice(); !reflect.DeepEqual(got, []float64{1.5, -2.5}) {
		t.Fatalf("F64Slice = %v", got)
	}
	if got := r.I32Slice(); !reflect.DeepEqual(got, []int32{-1, 0, 7}) {
		t.Fatalf("I32Slice = %v", got)
	}
	if got := r.VecField(); !got.Equal(metric.Vector{1, 2, 3.5}) {
		t.Fatalf("Vec = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32() // under-read
	if r.Err() == nil {
		t.Fatal("no error after under-read")
	}
	if got := r.U64(); got != 0 {
		t.Fatal("read after error returned data")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	var b Buffer
	b.U8(1)
	b.U8(2)
	r := NewReader(b.B)
	r.U8()
	if r.Err() == nil {
		t.Fatal("unconsumed payload bytes not reported")
	}
}

func TestReaderHostileLength(t *testing.T) {
	var b Buffer
	b.U32(1 << 30) // claims a gigabyte of floats
	r := NewReader(b.B)
	if got := r.F64Slice(); got != nil {
		t.Fatalf("hostile length yielded %d floats", len(got))
	}
	if r.Err() == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xCC}, 100000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgAck, p); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgAck {
			t.Fatalf("case %d: type = %v", i, typ)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("case %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
}

func TestReadFrameRejectsCorruptHeader(t *testing.T) {
	// Size zero.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 1})); err == nil {
		t.Fatal("zero-size frame accepted")
	}
	// Implausibly large size.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgAck, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgCandidates.String() != "candidates" {
		t.Fatalf("got %q", MsgCandidates.String())
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func sampleEntries() []mindex.Entry {
	return []mindex.Entry{
		{ID: 1, Perm: []int32{2, 0, 1}, Dists: []float64{1, 2, 3}, Payload: []byte{9, 8}},
		{ID: 2, Perm: []int32{0, 1, 2}, Vec: metric.Vector{1.5, 2.5}},
	}
}

func TestMessageRoundTrips(t *testing.T) {
	t.Run("insert-entries", func(t *testing.T) {
		in := InsertEntriesReq{Entries: sampleEntries()}
		out, err := DecodeInsertEntriesReq(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Entries) != 2 || out.Entries[0].ID != 1 || out.Entries[1].Vec[1] != 2.5 {
			t.Fatalf("round trip: %+v", out)
		}
	})
	t.Run("insert-objects", func(t *testing.T) {
		in := InsertObjectsReq{Objects: []metric.Object{{ID: 5, Vec: metric.Vector{1, 2}}}}
		out, err := DecodeInsertObjectsReq(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Objects) != 1 || out.Objects[0].ID != 5 {
			t.Fatalf("round trip: %+v", out)
		}
	})
	t.Run("delete-entries", func(t *testing.T) {
		in := DeleteEntriesReq{Refs: []mindex.Entry{
			{ID: 9, Perm: []int32{2, 0, 1}},
			{ID: 10, Perm: []int32{0, 1, 2}},
		}}
		out, err := DecodeDeleteEntriesReq(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Refs, in.Refs) {
			t.Fatalf("round trip: %+v", out)
		}
	})
	t.Run("delete-ack", func(t *testing.T) {
		in := DeleteAckResp{ServerNanos: 77, Deleted: 3}
		out, err := DecodeDeleteAckResp(in.Encode())
		if err != nil || out != in {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("range-plain", func(t *testing.T) {
		in := RangePlainReq{Q: metric.Vector{7, 8}, Radius: 1}
		out, err := DecodeRangePlainReq(in.Encode())
		if err != nil || !out.Q.Equal(in.Q) || out.Radius != 1 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("knn-plain", func(t *testing.T) {
		in := KNNPlainReq{Q: metric.Vector{1}, K: 30}
		out, err := DecodeKNNPlainReq(in.Encode())
		if err != nil || out.K != 30 || !out.Q.Equal(in.Q) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("approx-plain", func(t *testing.T) {
		in := ApproxPlainReq{Q: metric.Vector{1, 2, 3}, K: 30, CandSize: 1500}
		out, err := DecodeApproxPlainReq(in.Encode())
		if err != nil || out.K != 30 || out.CandSize != 1500 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("candidates", func(t *testing.T) {
		in := CandidatesResp{ServerNanos: 12345, Entries: sampleEntries()}
		out, err := DecodeCandidatesResp(in.Encode())
		if err != nil || out.ServerNanos != 12345 || len(out.Entries) != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("batch-query", func(t *testing.T) {
		in := BatchQueryReq{Queries: []BatchQuery{
			{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 0.5},
			{Kind: BatchApproxPerm, Perm: []int32{1, 0, 2}, CandSize: 40},
			{Kind: BatchApproxDists, Dists: []float64{3}, CandSize: 7},
		}}
		out, err := DecodeBatchQueryReq(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v", out)
		}
		// A lone unranked, unfiltered query costs exactly count + kind over
		// its fields — no trailer bytes.
		lone := BatchQueryReq{Queries: in.Queries[1:2]}.Encode()
		if want := 4 + 1 + (4 + 3*4) + 4; len(lone) != want {
			t.Fatalf("batch-of-one encodes to %d bytes, want %d", len(lone), want)
		}
	})
	t.Run("batch-query-ranked-filtered", func(t *testing.T) {
		qs := []BatchQuery{{Kind: BatchFirstCell, Dists: []float64{1, 2}}}
		for _, in := range []BatchQueryReq{
			{Queries: qs, Ranked: true},
			{Queries: qs, Allow: []int32{7, 0, 3}},
			{Queries: qs, Ranked: true, Allow: []int32{}}, // empty ≠ nil: allow nothing
			{Ranked: true, Allow: []int32{1}},
		} {
			out, err := DecodeBatchQueryReq(in.Encode())
			if err != nil {
				t.Fatalf("%+v: %v", in, err)
			}
			if len(in.Queries) == 0 {
				in.Queries = []BatchQuery{}
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip: got %+v, want %+v", out, in)
			}
		}
		// Every strict prefix of a trailer-carrying request that cuts into
		// the trailer must fail, as must unknown or zero flag bits.
		full := BatchQueryReq{Queries: qs, Ranked: true, Allow: []int32{1, 2}}.Encode()
		bare := len(BatchQueryReq{Queries: qs}.Encode())
		for n := bare + 1; n < len(full); n++ {
			if _, err := DecodeBatchQueryReq(full[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(full))
			}
		}
		for _, flags := range []byte{0, 4, 0xFF} {
			if _, err := DecodeBatchQueryReq(append(full[:bare:bare], flags)); err == nil {
				t.Fatalf("trailer flags %#x accepted", flags)
			}
		}
		if _, err := DecodeBatchQueryReq(append(full, 0)); err == nil {
			t.Fatal("trailing byte decoded without error")
		}
	})
	t.Run("download-all", func(t *testing.T) {
		for _, in := range []DownloadAllReq{{}, {Allow: []int32{}}, {Allow: []int32{4, 1}}} {
			out, err := DecodeDownloadAllReq(in.Encode())
			if err != nil || !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip: got %+v, %v; want %+v", out, err, in)
			}
		}
		full := DownloadAllReq{Allow: []int32{4, 1}}.Encode()
		for n := 1; n < len(full); n++ {
			if _, err := DecodeDownloadAllReq(full[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded without error", n)
			}
		}
	})
	t.Run("batch-query-unknown-kind", func(t *testing.T) {
		var b Buffer
		b.U32(1)
		b.U8(99)
		if _, err := DecodeBatchQueryReq(b.B); err == nil {
			t.Fatal("unknown batch kind accepted")
		}
	})
	t.Run("batch-candidates", func(t *testing.T) {
		// The flat form is the ranked one with the annotations dropped —
		// but for a bound query's last bound, which trails its candidates.
		ranked := func(entries []mindex.Entry) []mindex.RankedCandidate {
			rcs := make([]mindex.RankedCandidate, len(entries))
			for i, e := range entries {
				rcs[i] = mindex.RankedCandidate{Entry: mindex.ViewOf(e), Promise: 0.5 + float64(i), Prefix: []int32{1}}
			}
			return rcs
		}
		for name, queries := range map[string][]BatchQuery{
			"approx": nil,
			"bound":  {{Kind: BatchBound}, {Kind: BatchBound}, {Kind: BatchApproxPerm}},
		} {
			var b Buffer
			BatchRankedResp{ServerNanos: 77, Results: [][]mindex.RankedCandidate{
				ranked(sampleEntries()),
				nil,
				ranked([]mindex.Entry{{ID: 9, Perm: []int32{1}}}),
			}}.AppendFlatTo(&b, queries)
			out, err := DecodeBatchQueryResp(b.B, queries)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.ServerNanos != 77 || len(out.Results) != 3 ||
				len(out.Results[0]) != 2 || len(out.Results[1]) != 0 || out.Results[2][0].ID != 9 {
				t.Fatalf("%s: round trip: %+v", name, out)
			}
			wantBounds := []float64{0, 0, 0}
			if name == "bound" {
				wantBounds[0] = 1.5 // the last of the two candidates; an empty result says 0
			}
			if !slices.Equal(out.Bounds, wantBounds) {
				t.Fatalf("%s: bounds %v, want %v", name, out.Bounds, wantBounds)
			}
			var refs CandidateRefs
			if err := refs.DecodeFlat(b.B, queries); err != nil || !slices.Equal(refs.Bounds, wantBounds) {
				t.Fatalf("%s: by-reference bounds %v (%v), want %v", name, refs.Bounds, err, wantBounds)
			}
		}
	})
	t.Run("results", func(t *testing.T) {
		in := ResultsResp{ServerNanos: 1, DistNanos: 2, Results: []mindex.Result{
			{ID: 1, Dist: 0.5, Vec: metric.Vector{1}},
			{ID: 2, Dist: 1.5},
		}}
		out, err := DecodeResultsResp(in.Encode())
		if err != nil || len(out.Results) != 2 || out.Results[0].Dist != 0.5 || out.DistNanos != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("ack", func(t *testing.T) {
		out, err := DecodeAckResp(AckResp{ServerNanos: 9, DistNanos: 3}.Encode())
		if err != nil || out.ServerNanos != 9 || out.DistNanos != 3 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("error", func(t *testing.T) {
		out, err := DecodeErrorResp(ErrorResp{Msg: "boom"}.Encode())
		if err != nil || out.Msg != "boom" {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		re := &RemoteError{Msg: "x"}
		if re.Error() == "" {
			t.Fatal("empty remote error text")
		}
	})
	t.Run("put-nodes", func(t *testing.T) {
		in := PutNodesReq{RootID: 3, Nodes: []EHINode{{ID: 3, Blob: []byte{1}}, {ID: 4, Blob: nil}}}
		out, err := DecodePutNodesReq(in.Encode())
		if err != nil || out.RootID != 3 || len(out.Nodes) != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("get-node", func(t *testing.T) {
		out, err := DecodeGetNodeReq(GetNodeReq{ID: 77}.Encode())
		if err != nil || out.ID != 77 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("node-blob", func(t *testing.T) {
		out, err := DecodeNodeBlobResp(NodeBlobResp{ServerNanos: 4, Blob: []byte{5, 6}}.Encode())
		if err != nil || out.ServerNanos != 4 || !bytes.Equal(out.Blob, []byte{5, 6}) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("put-fdh", func(t *testing.T) {
		in := PutFDHReq{Items: []FDHItem{{Key: 1, Payload: []byte{1}}, {Key: 2, Payload: []byte{2, 3}}}}
		out, err := DecodePutFDHReq(in.Encode())
		if err != nil || len(out.Items) != 2 || out.Items[1].Key != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("fdh-query", func(t *testing.T) {
		in := FDHQueryReq{Keys: []uint64{9, 10, 11}}
		out, err := DecodeFDHQueryReq(in.Encode())
		if err != nil || !reflect.DeepEqual(out.Keys, in.Keys) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
}

// Property: decoders never panic and never accept trailing garbage appended
// to a valid message.
func TestQuickDecodersRobust(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > 2048 {
			p = p[:2048]
		}
		_, _ = DecodeInsertEntriesReq(p)
		_, _ = DecodeDeleteEntriesReq(p)
		_, _ = DecodeDeleteAckResp(p)
		_, _ = DecodeBatchQueryReq(p)
		_, _ = DecodeDownloadAllReq(p)
		_, _ = DecodeCandidatesResp(p)
		_, _ = DecodeResultsResp(p)
		_, _ = DecodePutNodesReq(p)
		_, _ = DecodePutFDHReq(p)
		_, _ = DecodeFDHQueryReq(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	valid := DeleteAckResp{ServerNanos: 1, Deleted: 2}.Encode()
	if _, err := DecodeDeleteAckResp(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestCountingConn(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc := NewCountingConn(client)

	done := make(chan error, 1)
	go func() {
		_, payload, err := ReadFrame(server)
		if err != nil {
			done <- err
			return
		}
		done <- WriteFrame(server, MsgAck, payload)
	}()

	payload := bytes.Repeat([]byte{1}, 1000)
	if err := WriteFrame(cc, MsgDownloadAll, payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(cc); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cc.BytesWritten() != 1005 {
		t.Fatalf("written = %d, want 1005", cc.BytesWritten())
	}
	if cc.BytesRead() != 1005 {
		t.Fatalf("read = %d, want 1005", cc.BytesRead())
	}
	cc.ResetCounters()
	if cc.BytesRead() != 0 || cc.BytesWritten() != 0 {
		t.Fatal("reset failed")
	}
}

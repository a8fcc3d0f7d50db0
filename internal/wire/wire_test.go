package wire

import (
	"bytes"
	"math"
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
	if MsgBlobs.String() != "blobs" {
		t.Fatalf("got %q", MsgBlobs.String())
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func sampleEntries() []mindex.Entry {
	return []mindex.Entry{
		{ID: 1, Perm: []int32{2, 0, 1}, Dists: []float64{1, 2, 3}, Payload: []byte{9, 8}},
		{ID: 2, Perm: []int32{0, 1, 2}, Payload: []byte{1, 5, 2, 5}},
	}
}

func TestMessageRoundTrips(t *testing.T) {
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
	t.Run("plain-query", func(t *testing.T) {
		// Each kind carries its kind byte, the vector and its own fields only.
		for _, in := range []PlainQueryReq{
			{Kind: PlainRange, Q: metric.Vector{7, 8}, Radius: 1},
			{Kind: PlainKNN, Q: metric.Vector{1}, K: 30},
			{Kind: PlainApprox, Q: metric.Vector{1, 2, 3}, K: 30, CandSize: 1500},
			{Kind: PlainFirstCell, Q: metric.Vector{1, 2}, K: 4},
		} {
			enc := in.Encode()
			out, err := DecodePlainQueryReq(enc)
			if err != nil || !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip: %+v, %v; want %+v", out, err, in)
			}
			fields := map[uint8]int{PlainRange: 8, PlainKNN: 4, PlainApprox: 8, PlainFirstCell: 4}[in.Kind]
			if want := 1 + 4 + 4*len(in.Q) + fields; len(enc) != want {
				t.Fatalf("kind %d encodes to %d bytes, want %d", in.Kind, len(enc), want)
			}
		}
		if _, err := DecodePlainQueryReq(PlainQueryReq{Kind: 9, Q: metric.Vector{1}, K: 1}.Encode()); err == nil {
			t.Fatal("unknown plain kind accepted")
		}
	})
	t.Run("candidates", func(t *testing.T) {
		in := CandidatesResp{ServerNanos: 12345, Entries: sampleEntries()}
		var b Buffer
		in.AppendTo(&b)
		out, err := DecodeCandidatesResp(b.B)
		if err != nil || out.ServerNanos != 12345 || len(out.Entries) != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("batch-query", func(t *testing.T) {
		in := BatchQueryReq{Queries: []BatchQuery{
			{Kind: BatchRange, Dists: []float64{1, 2}, Radius: 0.5},
			{Kind: BatchApproxPerm, Perm: []int32{1, 0, 2}, CandSize: 40},
			{Kind: BatchApproxDists, Dists: []float64{3}, CandSize: 7},
			{Kind: BatchRange, Dists: []float64{0, 0}, Radius: math.Inf(1), CandSize: 9},
			{Kind: BatchAll},
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
		// A range carries its distances, its radius and its candidate size.
		if rng := (BatchQueryReq{Queries: in.Queries[3:4]}).Encode(); len(rng) != 4+1+(4+2*8)+8+4 {
			t.Fatalf("lone range encodes to %d bytes, want %d", len(rng), 4+1+(4+2*8)+8+4)
		}
		// A download of everything is a count and a kind byte.
		if all := (BatchQueryReq{Queries: in.Queries[4:]}).Encode(); len(all) != 5 {
			t.Fatalf("lone BatchAll encodes to %d bytes, want 5", len(all))
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
	t.Run("batch-query-unknown-kind", func(t *testing.T) {
		// 5 was v7's bound kind.
		for _, kind := range []uint8{5, 99} {
			var b Buffer
			b.U32(1)
			b.U8(kind)
			if _, err := DecodeBatchQueryReq(b.B); err == nil {
				t.Fatalf("unknown batch kind %d accepted", kind)
			}
		}
	})
	t.Run("batch-candidates", func(t *testing.T) {
		// The flat form is the ranked one with the annotations dropped —
		// but for a range query's page trailer, which follows its
		// candidates: full when they reach its candidate size.
		ranked := func(entries []mindex.Entry) []mindex.RankedCandidate {
			rcs := make([]mindex.RankedCandidate, len(entries))
			for i, e := range entries {
				rcs[i] = mindex.RankedCandidate{Entry: mindex.ViewOf(e), Promise: 0.5 + float64(i), Prefix: []int32{1}}
			}
			return rcs
		}
		for name, queries := range map[string][]BatchQuery{
			"approx": nil,
			"range":  {{Kind: BatchRange, CandSize: 2}, {Kind: BatchRange, CandSize: 2}, {Kind: BatchApproxPerm}},
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
			wantPages := []Page{{}, {}, {}}
			if name == "range" {
				// The last of the two candidates its candidate size asks for.
				wantPages[0] = Page{Full: true, Last: mindex.BoundKey{LB: 1.5, ID: sampleEntries()[1].ID}}
			}
			if !slices.Equal(out.Pages, wantPages) {
				t.Fatalf("%s: pages %v, want %v", name, out.Pages, wantPages)
			}
			var refs CandidateRefs
			if err := refs.DecodeFlat(b.B, queries); err != nil || !slices.Equal(refs.Pages, wantPages) {
				t.Fatalf("%s: by-reference pages %v (%v), want %v", name, refs.Pages, err, wantPages)
			}
		}
	})
	t.Run("results", func(t *testing.T) {
		in := ResultsResp{ServerNanos: 1, DistNanos: 2, Results: []Result{
			{ID: 1, Dist: 0.5, Vec: metric.Vector{1}},
			{ID: 2, Dist: 1.5},
		}}
		out, err := DecodeResultsResp(in.Encode())
		if err != nil || len(out.Results) != 2 || out.Results[0].Dist != 0.5 || out.DistNanos != 2 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("ack", func(t *testing.T) {
		out, err := DecodeAckResp(AckResp{ServerNanos: 9}.Encode())
		if err != nil || out.ServerNanos != 9 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		// A version-5 ack still carried a distance time after the server
		// time: its 16 bytes are refused, not half read.
		var v5 Buffer
		v5.U64(9)
		v5.U64(3)
		if _, err := DecodeAckResp(v5.B); err == nil {
			t.Fatal("a version-5 ack decoded")
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
	t.Run("put-blobs", func(t *testing.T) {
		in := PutBlobsReq{Space: SpaceFDH, Items: []Blob{{Key: 1, Data: []byte{1}}, {Key: 1, Data: []byte{2, 3}}, {Key: 4, Data: []byte{}}}}
		out, err := DecodePutBlobsReq(in.Encode())
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	})
	t.Run("get-blobs", func(t *testing.T) {
		in := GetBlobsReq{Space: SpaceEHI, Keys: []uint64{9, 10, 11}}
		enc := in.Encode()
		out, err := DecodeGetBlobsReq(enc)
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if len(enc) != 1+4+8*3 {
			t.Fatalf("get-blobs of 3 keys encodes to %d bytes", len(enc))
		}
	})
	t.Run("blobs", func(t *testing.T) {
		in := BlobsResp{ServerNanos: 4, Lists: [][][]byte{{{5, 6}}, nil, {{7}, {8, 9}}}}
		enc := in.Encode()
		out, err := DecodeBlobsResp(enc, 3)
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		// The reply must answer exactly the keys asked for.
		for _, keys := range []int{2, 4} {
			if _, err := DecodeBlobsResp(enc, keys); err == nil {
				t.Fatalf("3 lists accepted as the answer to %d keys", keys)
			}
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
		_, _ = DecodeIngestChunkReq(p)
		_, _ = DecodeDeleteEntriesReq(p)
		_, _ = DecodeDeleteAckResp(p)
		_, _ = DecodeBatchQueryReq(p)
		_, _ = DecodeCandidatesResp(p)
		_, _ = DecodeResultsResp(p)
		_, _ = DecodePutBlobsReq(p)
		_, _ = DecodeGetBlobsReq(p)
		_, _ = DecodeBlobsResp(p, 1)
		_, _ = DecodePlainQueryReq(p)
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
	cc := &CountingConn{Conn: client}

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
	if err := WriteFrame(cc, MsgPutBlobs, payload); err != nil {
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

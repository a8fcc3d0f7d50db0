package wire

import (
	"errors"
	"reflect"
	"testing"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
)

func TestIngestChunkReqRoundTrip(t *testing.T) {
	want := IngestChunkReq{
		Seq: 7,
		Entries: []mindex.Entry{
			{ID: 1, Perm: []int32{2, 0, 1}, Payload: []byte{9, 9}},
			{ID: 2, Perm: []int32{0, 1, 2}, Dists: []float64{1, 2, 3}},
		},
	}
	got, err := DecodeIngestChunkReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	empty, err := DecodeIngestChunkReq(IngestChunkReq{Seq: 3}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if empty.Seq != 3 || len(empty.Entries) != 0 {
		t.Fatalf("empty chunk round trip: %+v", empty)
	}
}

func TestIngestChunkReqHostileCount(t *testing.T) {
	var b Buffer
	b.U32(0)          // seq
	b.U32(0xFFFFFFFF) // absurd entry count for a tiny payload
	if _, err := DecodeIngestChunkReq(b.B); err == nil {
		t.Fatal("hostile entry count decoded without error")
	}
	if _, err := DecodeIngestChunkReq([]byte{1, 2}); err == nil {
		t.Fatal("truncated header decoded without error")
	}
}

func TestIngestObjChunkReqRoundTrip(t *testing.T) {
	want := IngestObjChunkReq{
		Seq: 9,
		Objects: []metric.Object{
			{ID: 4, Vec: metric.Vector{1, 2.5}},
			{ID: 5, Vec: metric.Vector{-1}},
		},
	}
	got, err := DecodeIngestObjChunkReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || len(got.Objects) != len(want.Objects) {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	for i, o := range want.Objects {
		g := got.Objects[i]
		if g.ID != o.ID || !g.Vec.Equal(o.Vec) {
			t.Fatalf("object %d mismatch: got %+v, want %+v", i, g, o)
		}
	}
}

func TestIngestObjChunkReqHostileCount(t *testing.T) {
	var b Buffer
	b.U32(0)
	b.U32(0x7FFFFFFF) // object count far beyond the payload
	if !errors.Is(mustErr(DecodeIngestObjChunkReq(b.B)), ErrCodec) {
		t.Fatal("hostile object count decoded without ErrCodec")
	}
	// Truncated mid-object: plausible count, missing vector bytes.
	var c Buffer
	c.U32(0)
	c.U32(1)
	c.U64(7)
	if err := mustErr(DecodeIngestObjChunkReq(c.B)); err == nil {
		t.Fatal("truncated object decoded without error")
	}
}

// mustErr adapts a (value, error) decode result to its error.
func mustErr[T any](_ T, err error) error { return err }

func TestIngestChunkAckRespRoundTrip(t *testing.T) {
	want := IngestChunkAckResp{Seq: 11, ServerNanos: 12345, DistNanos: 678}
	got, err := DecodeIngestChunkAckResp(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if _, err := DecodeIngestChunkAckResp([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated ack decoded without error")
	}
	if _, err := DecodeIngestChunkAckResp(want.Encode()[:12]); err == nil {
		t.Fatal("a protocol-v4 ack (no distance time) decoded without error")
	}
	if _, err := DecodeIngestChunkAckResp(append(want.Encode(), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestIngestEndReqRoundTrip(t *testing.T) {
	if _, err := DecodeIngestEndReq(IngestEndReq{}.Encode()); err != nil {
		t.Fatal(err)
	}
	// The end frame is deliberately payload-free; anything else is hostile.
	if !errors.Is(mustErr(DecodeIngestEndReq([]byte{0})), ErrCodec) {
		t.Fatal("non-empty ingest-end payload accepted")
	}
}

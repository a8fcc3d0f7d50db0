package wire

import (
	"reflect"
	"testing"

	"simcloud/internal/mindex"
)

func TestResyncReqRoundTrip(t *testing.T) {
	want := ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{
			{ID: 1, Perm: []int32{0, 2, 1}, Dists: []float64{0.5}, Payload: []byte{7}},
			{ID: 2, Perm: []int32{1, 0, 2}},
		}},
		{Op: ResyncDelete, Entries: []mindex.Entry{{ID: 1, Perm: []int32{0}}}},
		{Op: ResyncInsert, Entries: nil},
	}}
	got, err := DecodeResyncReq(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("round trip: %d ops, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range want.Ops {
		if got.Ops[i].Op != want.Ops[i].Op || len(got.Ops[i].Entries) != len(want.Ops[i].Entries) {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, got.Ops[i], want.Ops[i])
		}
		for j := range want.Ops[i].Entries {
			if !reflect.DeepEqual(got.Ops[i].Entries[j], want.Ops[i].Entries[j]) {
				t.Fatalf("op %d entry %d mismatch", i, j)
			}
		}
	}
	// Empty request round-trips too.
	if m, err := DecodeResyncReq(ResyncReq{}.Encode()); err != nil || len(m.Ops) != 0 {
		t.Fatalf("empty round trip: %+v, %v", m, err)
	}
}

func TestResyncReqRejectsBadOp(t *testing.T) {
	var b Buffer
	b.U32(1)
	b.U8(99) // not a re-sync op
	b.U32(0)
	if _, err := DecodeResyncReq(b.B); err == nil {
		t.Fatal("unknown op decoded without error")
	}
}

func TestResyncReqTruncated(t *testing.T) {
	full := ResyncReq{Ops: []ResyncOp{
		{Op: ResyncInsert, Entries: []mindex.Entry{{ID: 3, Perm: []int32{1}}}},
	}}.Encode()
	for n := range len(full) {
		if _, err := DecodeResyncReq(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// lyingHeader claims a frame one byte short of MaxFrameSize.
var lyingHeader = []byte{0x3F, 0xFF, 0xFF, 0xFF, 0x17}

// allocatedDuring reports the bytes the heap handed out while fn ran.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameLyingLength: a length prefix is a claim, not a fact. A peer
// that announces a 1 GiB frame and then hangs up or stalls must cost the
// reader an error and roughly what was actually sent — not a gigabyte
// allocated before the first payload byte arrived.
func TestReadFrameLyingLength(t *testing.T) {
	const ceiling = 4 << 20

	t.Run("eof", func(t *testing.T) {
		sent := append(bytes.Clone(lyingHeader), bytes.Repeat([]byte{7}, 1000)...)
		var err error
		got := allocatedDuring(func() { _, _, err = ReadFrame(bytes.NewReader(sent)) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want an unexpected EOF", err)
		}
		if got >= ceiling {
			t.Fatalf("a %d-byte frame claiming 1 GiB allocated %d bytes, want < %d", len(sent), got, ceiling)
		}
	})

	t.Run("stall", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		go client.Write(lyingHeader) // then nothing, with the connection open
		server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		var err error
		got := allocatedDuring(func() { _, _, err = ReadFrame(server) })
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want a deadline error", err)
		}
		if got >= ceiling {
			t.Fatalf("a stalled frame claiming 1 GiB allocated %d bytes, want < %d", got, ceiling)
		}
	})

	t.Run("pooled", func(t *testing.T) {
		buf := GetBuffer()
		defer PutBuffer(buf)
		if _, _, err := ReadFrameInto(bytes.NewReader(lyingHeader), buf); err == nil {
			t.Fatal("a frame with no body was read without error")
		}
		if cap(buf.B) >= ceiling {
			t.Fatalf("the lying frame grew the pooled buffer to %d bytes", cap(buf.B))
		}
	})
}

// TestReadFrameIntoReuses: a frame larger than one growth step arrives
// intact, and a second frame read into the same buffer reuses its memory.
func TestReadFrameIntoReuses(t *testing.T) {
	big := make([]byte, 3*frameStep+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, MsgBatchCandidates, big); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, MsgAck, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var buf Buffer
	typ, payload, err := ReadFrameInto(&stream, &buf)
	if err != nil || typ != MsgBatchCandidates || !bytes.Equal(payload, big) {
		t.Fatalf("large frame: type %v, %d bytes, err %v", typ, len(payload), err)
	}
	held := &payload[0]
	typ, payload, err = ReadFrameInto(&stream, &buf)
	if err != nil || typ != MsgAck || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("small frame: type %v, payload %v, err %v", typ, payload, err)
	}
	if &payload[0] != held {
		t.Fatal("the second frame did not reuse the buffer's memory")
	}
}

// writeCounter is a net.Conn that records the size of every Write.
type writeCounter struct {
	net.Conn
	writes []int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return len(p), nil
}

// TestWriteFrameSingleWrite: a small frame — every request, ack and error —
// leaves in one Write; a large one keeps header and payload apart instead of
// copying the payload. The bytes on the wire, which CountingConn and
// therefore the communication-cost measure count, are the same either way.
func TestWriteFrameSingleWrite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload int
		writes  int
	}{
		{"empty", 0, 1},
		{"request", 200, 1},
		{"threshold", smallFrame, 1},
		{"above-threshold", smallFrame + 1, 2},
		{"candidates", 500_000, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := bytes.Repeat([]byte{0xAB}, tc.payload)
			var stub writeCounter
			counting := &CountingConn{Conn: &stub}
			if err := WriteFrame(counting, MsgAck, payload); err != nil {
				t.Fatal(err)
			}
			if len(stub.writes) != tc.writes {
				t.Fatalf("%d-byte payload went out in %d writes (%v), want %d", tc.payload, len(stub.writes), stub.writes, tc.writes)
			}
			if got, want := counting.BytesWritten(), int64(frameHeader+tc.payload); got != want {
				t.Fatalf("CountingConn saw %d bytes, want %d", got, want)
			}
		})
	}
	// And what is written is still the frame ReadFrame expects.
	var stream bytes.Buffer
	want := bytes.Repeat([]byte{3}, 100)
	if err := WriteFrame(&stream, MsgError, want); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&stream)
	if err != nil || typ != MsgError || !bytes.Equal(got, want) {
		t.Fatalf("round trip: type %v, %d bytes, err %v", typ, len(got), err)
	}
}

// TestPoisonBuffers: with the hook on, PutBuffer overwrites what it takes
// back, so a stale view reads poison; the hook goes off with the test.
func TestPoisonBuffers(t *testing.T) {
	t.Run("on", func(t *testing.T) {
		PoisonBuffers(t)
		b := GetBuffer()
		b.B = append(b.B, "ciphertext"...)
		view := b.B[:10]
		PutBuffer(b)
		if !bytes.Equal(view, bytes.Repeat([]byte{0xDB}, 10)) {
			t.Fatalf("view after PutBuffer reads %q, want poison", view)
		}
	})
	if poisonOnPut.Load() {
		t.Fatal("poisoning outlived the test that asked for it")
	}
}

package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"simcloud/internal/stats"
)

// echoPeer is a loopback peer for link tests: it answers a hello, refuses
// MsgDeleteObjects with an error frame, and echoes every other request's
// payload back in a MsgAck.
func echoPeer(t *testing.T) string {
	t.Helper()
	srv := &Server{Handler: func(typ MsgType, payload []byte, _ time.Time, _ *Buffer) (MsgType, []byte, error) {
		switch typ {
		case MsgHello:
			return MsgHelloAck, HelloResp{Version: ProtocolVersion}.Encode(), nil
		case MsgDeleteObjects:
			return 0, nil, errors.New("refused")
		}
		return MsgAck, payload, nil
	}}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func echoLink(t *testing.T) *Link {
	t.Helper()
	l := NewLink(Dialer(echoPeer(t), 0, func(HelloResp) error { return nil }))
	t.Cleanup(func() { l.Close() })
	return l
}

// TestPoolHygiene: a pre-cancelled context must not condemn a healthy idle
// connection, and a concurrency burst must not pin one socket per peak
// goroutine after it drains.
func TestPoolHygiene(t *testing.T) {
	l := echoLink(t)
	if err := l.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Idle
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := l.RoundTrip(cancelled, MsgAck, []byte{1}, new(Buffer), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if got := l.Stats().Idle; got != before {
		t.Errorf("pre-cancelled round trip changed the idle pool: %d -> %d", before, got)
	}

	var wg sync.WaitGroup
	for range 4 * MaxIdle {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := l.RoundTrip(context.Background(), MsgAck, []byte{1}, new(Buffer), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s := l.Stats(); s.Idle > MaxIdle || s.Leased != 0 || s.Peak < 1 || s.Peak > 4*MaxIdle {
		t.Errorf("after the burst: %+v, idle cap is %d", s, MaxIdle)
	}
}

// TestArmContextCancelRacesDisarm races a cancellation against disarming a
// successful exchange, a thousand times on one connection: however they
// interleave, disarm must leave the connection without a deadline, so the
// next exchange on it runs clean.
func TestArmContextCancelRacesDisarm(t *testing.T) {
	l := echoLink(t)
	if err := l.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	conn, err := l.get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.put(conn, false)
	buf := new(Buffer)
	for i := range 1000 {
		ctx, cancel := context.WithCancel(context.Background())
		disarm, err := ArmContext(ctx, conn)
		if err != nil {
			t.Fatal(err)
		}
		// Half the cancellations land before disarm — the callback has
		// started, not necessarily finished — and half race it.
		if i%2 == 0 {
			cancel()
		} else {
			go cancel()
		}
		if err := disarm(nil); err != nil {
			t.Fatalf("round %d: disarm of a successful exchange: %v", i, err)
		}
		if _, _, err := roundTrip(context.Background(), conn, MsgAck, []byte{byte(i)}, buf, nil); err != nil {
			t.Fatalf("round %d: exchange after a cancel raced disarm: %v", i, err)
		}
	}
}

// TestRoundTripChargesCosts: a round trip charges its bytes and one round
// trip, and an error frame comes back as a *RemoteError that leaves the
// connection pooled.
func TestRoundTripChargesCosts(t *testing.T) {
	l := echoLink(t)
	var costs stats.Costs
	typ, resp, err := l.RoundTrip(context.Background(), MsgIngestChunk, []byte("payload"), new(Buffer), &costs)
	if err != nil || typ != MsgAck || string(resp) != "payload" {
		t.Fatalf("round trip: %v %q %v", typ, resp, err)
	}
	// Request and reply are one 5-byte header plus the payload each.
	if costs.BytesSent != 12 || costs.BytesReceived != 12 || costs.RoundTrips != 1 {
		t.Fatalf("costs %+v", costs)
	}
	var remote *RemoteError
	if _, _, err := l.RoundTrip(context.Background(), MsgDeleteObjects, nil, new(Buffer), nil); !errors.As(err, &remote) {
		t.Fatalf("expected a remote error, got %v", err)
	}
	if s := l.Stats(); s.Dialed != 1 || s.Discarded != 0 || s.Idle != 1 {
		t.Fatalf("an error frame broke the connection: %+v", s)
	}
}

// TestFlightDrainsAfterRemoteError: a windowed flight whose reply check fails
// on an error frame drains the replies still owed, so its connection goes
// back to the pool framed; a check failing on anything else condemns it.
func TestFlightDrainsAfterRemoteError(t *testing.T) {
	l := echoLink(t)
	const n, bad = 12, 3
	flight := func(check func(i int, f Frame) error) error {
		_, err := l.Fly(context.Background(), Flight{
			N: n, Window: 4,
			Request: func(i int) (MsgType, []byte, error) {
				if i == bad {
					return MsgDeleteObjects, nil, nil
				}
				return MsgAck, []byte{byte(i)}, nil
			},
			Reply: check,
		}, nil)
		return err
	}
	err := flight(func(i int, f Frame) error { return f.Err() })
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("expected the error frame's remote error, got %v", err)
	}
	if s := l.Stats(); s.Dialed != 1 || s.Discarded != 0 {
		t.Fatalf("drained flight discarded its connection: %+v", s)
	}
	// The drained connection carries the next flight, reply for reply.
	replies, err := l.Exchange(context.Background(), []Frame{{Type: MsgAck, Payload: []byte{7}}, {Type: MsgAck, Payload: []byte{8}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrames(replies)
	if replies[0].Payload[0] != 7 || replies[1].Payload[0] != 8 {
		t.Fatalf("replies out of step after the drain: %v %v", replies[0].Payload, replies[1].Payload)
	}
	if s := l.Stats(); s.Dialed != 1 {
		t.Fatalf("exchange after the drain dialed again: %+v", s)
	}

	errOdd := errors.New("odd reply")
	if err := flight(func(i int, f Frame) error {
		if i == 5 {
			return errOdd
		}
		return nil
	}); !errors.Is(err, errOdd) {
		t.Fatalf("expected the check's error, got %v", err)
	}
	if s := l.Stats(); s.Discarded != 1 || s.Idle != 0 {
		t.Fatalf("a failed check left its connection pooled: %+v", s)
	}
}

// TestLoneRequestFlight: a one-request flight reads its reply after the
// write, with no reader goroutine, and keeps the flight's contract: a kept
// reply comes back, a checked error frame is a *RemoteError that leaves the
// connection pooled, and a failed check discards it.
func TestLoneRequestFlight(t *testing.T) {
	l := echoLink(t)
	lone := func(t MsgType, reply func(int, Frame) error) ([]Frame, error) {
		return l.Fly(context.Background(), Flight{N: 1, Request: func(int) (MsgType, []byte, error) {
			return t, []byte{9}, nil
		}, Reply: reply}, nil)
	}
	kept, err := lone(MsgAck, nil)
	if err != nil || len(kept) != 1 || kept[0].Type != MsgAck || kept[0].Payload[0] != 9 {
		t.Fatalf("lone flight: %v %v", kept, err)
	}
	ReleaseFrames(kept)
	var remote *RemoteError
	if _, err := lone(MsgDeleteObjects, func(_ int, f Frame) error { return f.Err() }); !errors.As(err, &remote) {
		t.Fatalf("expected the error frame's remote error, got %v", err)
	}
	if s := l.Stats(); s.Dialed != 1 || s.Discarded != 0 {
		t.Fatalf("a remote error discarded the connection: %+v", s)
	}
	errOdd := errors.New("odd reply")
	if _, err := lone(MsgAck, func(int, Frame) error { return errOdd }); !errors.Is(err, errOdd) {
		t.Fatalf("expected the check's error, got %v", err)
	}
	if s := l.Stats(); s.Discarded != 1 {
		t.Fatalf("a failed check left its connection pooled: %+v", s)
	}
}

// TestFlightClosingRequestSkipsWindow: a windowed flight writes its last
// request without waiting for a slot, so window+1 requests can be in flight
// at once. The peer here answers nothing until it holds window+1 requests;
// a flight that also held its closing request back for a slot would
// deadlock against it.
func TestFlightClosingRequestSkipsWindow(t *testing.T) {
	const window = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := ReadFrame(conn); err != nil { // the hello
			return
		}
		if err := WriteFrame(conn, MsgHelloAck, HelloResp{Version: ProtocolVersion}.Encode()); err != nil {
			return
		}
		var held [][]byte
		for len(held) < window+1 {
			_, payload, err := ReadFrame(conn)
			if err != nil {
				return
			}
			held = append(held, payload)
		}
		for _, payload := range held {
			if err := WriteFrame(conn, MsgAck, payload); err != nil {
				return
			}
		}
	}()
	l := NewLink(Dialer(ln.Addr().String(), 0, func(HelloResp) error { return nil }))
	t.Cleanup(func() { l.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []byte
	if _, err := l.Fly(ctx, Flight{
		N: window + 1, Window: window,
		Request: func(i int) (MsgType, []byte, error) { return MsgAck, []byte{byte(i)}, nil },
		Reply: func(i int, f Frame) error {
			got = append(got, f.Payload...)
			return nil
		},
	}, nil); err != nil {
		t.Fatalf("flight: %v", err)
	}
	if want := []byte{0, 1, 2, 3}; string(got) != string(want) {
		t.Fatalf("replies %v, want %v", got, want)
	}
}

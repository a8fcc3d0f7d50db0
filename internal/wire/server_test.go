package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer starts srv on a loopback port and closes it when the test
// ends.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func dialServer(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func ack(MsgType, []byte, time.Time, *Buffer) (MsgType, []byte, error) {
	return MsgAck, nil, nil
}

// TestServerCloseRacingConnections: Close racing fresh connection
// registration must neither leak a connection nor deadlock — every accepted
// connection ends up closed and the registry drains.
func TestServerCloseRacingConnections(t *testing.T) {
	for round := range 20 {
		srv := &Server{Handler: ack}
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
				// The reply may be an answer, a reset or nothing, depending
				// on how far Close got. Only leaks and races are wrong.
				_ = WriteFrame(conn, MsgAck, nil)
				_, _, _ = ReadFrame(conn)
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		srv.mu.Lock()
		leaked := len(srv.conns)
		srv.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("round %d: %d connections leaked past Close", round, leaked)
		}
	}
}

// TestServerCloseDrains: Close closes an idle connection at once, answers a
// request it has already read before closing that connection, and runs Cut
// only after that answer.
func TestServerCloseDrains(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var cutAfterReply bool
	replied := make(chan struct{})
	srv := &Server{
		Handler: func(typ MsgType, payload []byte, _ time.Time, _ *Buffer) (MsgType, []byte, error) {
			if typ == MsgDeleteObjects {
				close(held)
				<-release
				defer close(replied)
			}
			return MsgAck, payload, nil
		},
		Cut: func() {
			select {
			case <-replied:
				cutAfterReply = true
			default:
			}
		},
	}
	addr := startServer(t, srv)
	idle, busy := dialServer(t, addr), dialServer(t, addr)
	// A round trip registers the idle connection before Close runs.
	if err := WriteFrame(idle, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(idle); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(busy, MsgDeleteObjects, []byte("held")); err != nil {
		t.Fatal(err)
	}
	<-held

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	idle.SetReadDeadline(time.Now().Add(DrainTimeout / 2))
	if _, _, err := ReadFrame(idle); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection not closed at once: %v", err)
	}
	close(release)
	typ, payload, err := ReadFrame(busy)
	if err != nil || typ != MsgAck || string(payload) != "held" {
		t.Fatalf("held request got %v %q, %v; want its ack", typ, payload, err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if !cutAfterReply {
		t.Fatal("Cut ran before the held request was answered")
	}
	if _, _, err := ReadFrame(busy); err == nil {
		t.Fatal("connection still open after its drained reply")
	}
}

// TestServerCloseCutsAfterBound: a request still running when the drain
// bound runs out has its connection cut, and Cut is what lets its handler
// return.
func TestServerCloseCutsAfterBound(t *testing.T) {
	held, cut := make(chan struct{}), make(chan struct{})
	srv := &Server{
		Handler: func(MsgType, []byte, time.Time, *Buffer) (MsgType, []byte, error) {
			close(held)
			<-cut
			return MsgAck, nil, nil
		},
		Cut: func() { close(cut) },
	}
	conn := dialServer(t, startServer(t, srv))
	if err := WriteFrame(conn, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	<-held
	began := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took < DrainTimeout {
		t.Fatalf("Close cut a running request after %v, before the %v bound", took, DrainTimeout)
	}
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("a request past the drain bound was answered")
	}
}

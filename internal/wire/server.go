package wire

import (
	"errors"
	"net"
	"sync"
	"time"
)

// DrainTimeout bounds how long Close lets the requests it has already read
// run before it cuts their connections.
const DrainTimeout = 2 * time.Second

// A Handler answers one request frame. start is when the frame finished
// arriving. The reply may alias out, a pooled buffer leased for this request
// alone and returned once the reply is written. An error goes back to the
// client as a MsgError frame, and the connection stays usable.
type Handler func(t MsgType, payload []byte, start time.Time, out *Buffer) (MsgType, []byte, error)

// Server is the serving loop of the server and the cluster coordinator: a
// listener, the registry of open connections, and per connection one
// goroutine that reads a frame, calls Handler and writes the reply. Set the
// exported fields before Start. Start, Addr, Close and fresh accepts may
// race: an accepted connection is either registered before Close looks, and
// closed by it, or sees the server closed and closes itself.
type Server struct {
	Handler Handler
	Logf    func(format string, args ...any) // connection-level failures; nil drops them
	// Cut, when set, runs once the drain is over and before Close waits for
	// the handlers still running: it ends what only their owner can, such
	// as a round trip to a hung peer.
	Cut func()

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	done  chan struct{}  // made by the first Close, closed when it returns
	wg    sync.WaitGroup // the accept loop and the connection goroutines
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral loopback port)
// and serves every connection it accepts. A second Start, or one after
// Close, is refused.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != nil || s.ln != nil {
		ln.Close()
		return errors.New("wire: server already started or closed")
	}
	s.ln = ln
	s.conns = make(map[net.Conn]struct{})
	s.wg.Add(1) // under the lock: Close never reaches Wait before this Add
	go s.accept(ln)
	return nil
}

// Addr returns the listening address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.done != nil {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			return // client gone, garbage framing, or stopped by Close
		}
		if err := s.reply(conn, t, payload, time.Now()); err != nil {
			if s.Logf != nil {
				s.Logf("wire: writing response to %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

func (s *Server) reply(conn net.Conn, t MsgType, payload []byte, start time.Time) error {
	out := GetBuffer()
	defer PutBuffer(out)
	respType, resp, err := s.Handler(t, payload, start, out)
	if err != nil {
		respType, resp = MsgError, ErrorResp{Msg: err.Error()}.Encode()
	}
	return WriteFrame(conn, respType, resp)
}

// Close shuts the server down with a bounded drain: it stops accepting and
// closes idle connections at once, and a connection whose request was
// already read once its reply is written. After DrainTimeout it closes
// whatever is left. Then Cut runs, and Close waits for every handler to
// return. A second Close waits for the first.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.done != nil {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.done = make(chan struct{})
	defer close(s.done)
	// A read deadline in the past ends a wait for the next request at once,
	// and a request already read still gets its reply written.
	for conn := range s.conns {
		conn.SetReadDeadline(aLongTimeAgo)
	}
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(DrainTimeout):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	}
	if s.Cut != nil {
		s.Cut()
	}
	<-drained
	return err
}

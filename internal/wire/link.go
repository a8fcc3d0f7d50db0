package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"simcloud/internal/stats"
)

// A Link is every hop's connection to one peer: the client's to a server or
// coordinator, a baseline client's to its server, the coordinator's to each
// node. Each exchange leases one connection for its whole duration — a round
// trip or a pipelined flight — and returns it, so any number of goroutines
// share one link without interleaving frames on a socket. Connections are
// dialed on demand through the caller's dial function, kept idle between
// leases, and closed the moment an exchange on them fails: a connection with
// a partial frame in flight is unusable, never poolable.
type Link struct {
	dial func(ctx context.Context) (*CountingConn, error)

	mu     sync.Mutex
	idle   []*CountingConn
	leased map[*CountingConn]struct{}
	closed bool
	dialed uint64 // connections ever dialed (monotonic)
	broken uint64 // connections discarded as broken (monotonic)
	peak   int    // the most leases ever held at once
}

// ErrLinkClosed reports an exchange on a closed link.
var ErrLinkClosed = errors.New("wire: link is closed")

// MaxIdle caps the connections a link keeps warm between leases: a burst of
// N concurrent exchanges may dial up to N connections, but only this many
// survive the burst — the rest close on release, so a long-lived link does
// not pin one socket per historical peak goroutine.
const MaxIdle = 8

// LinkStats is a point-in-time view of a link's lease pool — the per-peer
// serving depth an operator watches: Leased is the number of exchanges in
// flight right now and Peak the most ever in flight at once, Idle the warm
// connections ready for the next ones, and the monotonic Dialed/Discarded
// counters expose churn (a climbing Discarded means exchanges keep
// poisoning their connections).
type LinkStats struct {
	Idle      int    `json:"idle"`
	Leased    int    `json:"leased"`
	Peak      int    `json:"peak"`
	Dialed    uint64 `json:"dialed"`
	Discarded uint64 `json:"discarded"`
}

// NewLink returns a link that dials its connections with dial.
func NewLink(dial func(ctx context.Context) (*CountingConn, error)) *Link {
	return &Link{dial: dial, leased: make(map[*CountingConn]struct{})}
}

// Dialer returns the dial function of a link to the peer at addr: a TCP dial
// and the hello handshake under the lease's ctx — bounded by timeout too when
// it is positive — with check judging the hello. The connection is closed on
// any failure after the connect, so a refused dial never leaks a socket.
func Dialer(addr string, timeout time.Duration, check func(HelloResp) error) func(context.Context) (*CountingConn, error) {
	return func(ctx context.Context) (*CountingConn, error) {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		var d net.Dialer
		raw, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
		}
		conn := &CountingConn{Conn: raw}
		info, err := hello(ctx, conn)
		if err == nil {
			err = check(info)
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// hello runs the hello handshake on conn under ctx and returns the peer's
// answer.
func hello(ctx context.Context, conn *CountingConn) (HelloResp, error) {
	respType, payload, err := roundTrip(ctx, conn, MsgHello, HelloReq{}.Encode(), new(Buffer), nil)
	if err != nil {
		return HelloResp{}, fmt.Errorf("wire: hello handshake: %w", err)
	}
	if respType != MsgHelloAck {
		return HelloResp{}, fmt.Errorf("wire: unexpected hello response %v", respType)
	}
	return DecodeHelloResp(payload)
}

// Stats reports the link's current depth and lifetime counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStats{
		Idle:      len(l.idle),
		Leased:    len(l.leased),
		Peak:      l.peak,
		Dialed:    l.dialed,
		Discarded: l.broken,
	}
}

// Warm dials one connection and keeps it idle, so an unreachable or
// incompatible peer fails here rather than on the first exchange.
func (l *Link) Warm(ctx context.Context) error {
	conn, err := l.dial(ctx)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		conn.Close()
		return ErrLinkClosed
	}
	l.dialed++
	l.idle = append(l.idle, conn)
	return nil
}

// get leases a connection: an idle one when available, a freshly dialed one
// otherwise. The dial respects ctx (deadline and cancellation).
func (l *Link) get(ctx context.Context) (*CountingConn, error) {
	if err := ctx.Err(); err != nil {
		// A dead context leases nothing — and, in particular, does not pop a
		// healthy idle connection only to condemn it unused.
		return nil, fmt.Errorf("%w: %w", ErrNotStarted, err)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLinkClosed
	}
	if n := len(l.idle); n > 0 {
		conn := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.lease(conn)
		l.mu.Unlock()
		return conn, nil
	}
	l.mu.Unlock()
	conn, err := l.dial(ctx)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		conn.Close()
		return nil, ErrLinkClosed
	}
	l.dialed++
	l.lease(conn)
	return conn, nil
}

// lease records conn as leased; l.mu is held.
func (l *Link) lease(conn *CountingConn) {
	l.leased[conn] = struct{}{}
	l.peak = max(l.peak, len(l.leased))
}

// put returns a leased connection. A broken connection (its exchange failed
// at the transport level, timed out, or was cancelled mid-frame) is closed
// instead of pooled; the next exchange dials fresh.
func (l *Link) put(conn *CountingConn, broken bool) {
	l.mu.Lock()
	delete(l.leased, conn)
	if broken {
		l.broken++
	}
	if broken || l.closed || len(l.idle) >= MaxIdle {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.idle = append(l.idle, conn)
	l.mu.Unlock()
}

// with runs one exchange on a leased connection: get, fn, put — with the
// broken-connection classification applied exactly once.
func (l *Link) with(ctx context.Context, fn func(conn *CountingConn) error) error {
	conn, err := l.get(ctx)
	if err != nil {
		return err
	}
	err = fn(conn)
	l.put(conn, connBroken(err))
	return err
}

// Close closes every connection of the link — leased ones included, so
// exchanges blocked mid-read fail at once — and refuses further leases.
// Idempotent.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := l.idle
	l.idle = nil
	for conn := range l.leased {
		conns = append(conns, conn)
	}
	l.mu.Unlock()
	var err error
	for _, conn := range conns {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// connBroken reports whether err poisons the connection it occurred on. An
// error frame the peer answered (RemoteError) leaves the connection perfectly
// framed and reusable, and an exchange aborted before any byte moved
// (ErrNotStarted — the context was already dead) never touched it;
// everything else — transport errors, context interruptions, codec failures
// — means unknown bytes may be in flight, so the lease must not return to
// the pool.
func connBroken(err error) bool {
	if err == nil || errors.Is(err, ErrNotStarted) {
		return false
	}
	var remote *RemoteError
	return !errors.As(err, &remote)
}

// remoteError decodes the payload of a MsgError frame.
func remoteError(payload []byte) error {
	m, err := DecodeErrorResp(payload)
	if err != nil {
		return err
	}
	return &RemoteError{Msg: m.Msg}
}

// meter charges one exchange on a connection to a stats.Costs: the wire time
// since it started, the bytes both counters moved past it, and one round
// trip.
type meter struct {
	start      time.Time
	sent, recv int64
}

func startMeter(conn *CountingConn) meter {
	return meter{start: time.Now(), sent: conn.BytesWritten(), recv: conn.BytesRead()}
}

// charge adds the exchange to costs; nil costs charges nothing. Server time
// is credited out of the wire time by the caller (stats.Costs.CreditServer).
func (m meter) charge(conn *CountingConn, costs *stats.Costs) {
	if costs == nil {
		return
	}
	costs.CommTime += time.Since(m.start)
	costs.BytesSent += conn.BytesWritten() - m.sent
	costs.BytesReceived += conn.BytesRead() - m.recv
	costs.RoundTrips++
}

// RoundTrip sends one request on a leased connection and reads the reply
// into buf under ctx: the context's deadline becomes the connection's
// deadline for the exchange, and cancelling it interrupts a blocked read. The
// returned payload aliases buf. An error frame becomes a *RemoteError. The
// exchange is charged to costs (nil charges nothing).
func (l *Link) RoundTrip(ctx context.Context, t MsgType, payload []byte, buf *Buffer, costs *stats.Costs) (MsgType, []byte, error) {
	var respType MsgType
	var resp []byte
	err := l.with(ctx, func(conn *CountingConn) error {
		var err error
		respType, resp, err = roundTrip(ctx, conn, t, payload, buf, costs)
		return err
	})
	return respType, resp, err
}

// roundTrip is one request/response exchange on conn under ctx.
func roundTrip(ctx context.Context, conn *CountingConn, t MsgType, payload []byte, buf *Buffer, costs *stats.Costs) (MsgType, []byte, error) {
	disarm, err := ArmContext(ctx, conn)
	if err != nil {
		return 0, nil, err
	}
	m := startMeter(conn)
	respType, resp, err := func() (MsgType, []byte, error) {
		if err := WriteFrame(conn, t, payload); err != nil {
			return 0, nil, err
		}
		return ReadFrameInto(conn, buf)
	}()
	m.charge(conn, costs)
	if err = disarm(err); err != nil {
		return 0, nil, err
	}
	if respType == MsgError {
		return 0, nil, remoteError(resp)
	}
	return respType, resp, nil
}

// Frame is one frame of a pipelined flight. A kept reply's payload sits in a
// pooled buffer that the receiver holds until it is done with everything
// decoded out of the payload — by reference, on the query path — and then
// gives back with ReleaseFrames.
type Frame struct {
	Type    MsgType
	Payload []byte
	buf     *Buffer
}

// Err returns the *RemoteError an error frame carries, or nil for any other
// frame. The peer names a failing item by its index within one frame, so
// callers wrap it with the frame's place in their batch.
func (f Frame) Err() error {
	if f.Type != MsgError {
		return nil
	}
	return remoteError(f.Payload)
}

// ReleaseFrames returns the kept replies of a flight to the buffer pool.
func ReleaseFrames(frames []Frame) {
	for _, f := range frames {
		if f.buf != nil {
			PutBuffer(f.buf)
		}
	}
}

// Flight is one pipelined exchange: N requests written back to back on one
// connection while a reader goroutine takes the replies in order, so N
// requests pay one round-trip latency plus streaming. The peer answers
// pipelined frames in order, so replies match requests positionally.
type Flight struct {
	// N is the number of requests.
	N int
	// Window bounds the requests written but not yet answered, the last
	// one excepted: a flight's closing request is written without waiting
	// for a slot. 0 means N.
	Window int
	// Request returns request i. It runs on the writing goroutine just
	// before the request is written, so a windowed flight can prepare each
	// request while earlier ones are on the wire.
	Request func(i int) (MsgType, []byte, error)
	// Reply, when set, checks reply i on the reading goroutine as it
	// arrives — its payload is valid only during the call — and an error
	// ends the flight. When nil, every reply is kept in a pooled frame and
	// returned.
	Reply func(i int, f Frame) error
}

// Exchange pipelines requests built up front and returns their replies in
// order; the caller releases them (ReleaseFrames).
func (l *Link) Exchange(ctx context.Context, reqs []Frame, costs *stats.Costs) ([]Frame, error) {
	return l.Fly(ctx, Flight{N: len(reqs), Request: func(i int) (MsgType, []byte, error) {
		return reqs[i].Type, reqs[i].Payload, nil
	}}, costs)
}

// flightDrainTimeout bounds the drain of a flight's outstanding replies after
// a reply check failed on an error frame. The peer answers each frame as it
// processes it, so a healthy connection drains in milliseconds; a stalled one
// is handed back as broken instead.
const flightDrainTimeout = 10 * time.Second

// Fly runs a flight on one leased connection under ctx: the context's
// deadline bounds it, cancellation interrupts the blocked reader, and the
// writer checks for cancellation between requests. A flight of one request
// is written and then read on the calling goroutine, as a RoundTrip is. The whole flight is
// charged to costs as one round trip. A flight that dies mid-pipeline leaves
// frames in transit, so its lease is discarded — except when a reply check
// failed on an error frame: the replies still owed are then drained, and the
// connection stays framed and poolable.
func (l *Link) Fly(ctx context.Context, f Flight, costs *stats.Costs) ([]Frame, error) {
	var kept []Frame
	err := l.with(ctx, func(conn *CountingConn) error {
		var err error
		kept, err = fly(ctx, conn, f, costs)
		return err
	})
	return kept, err
}

func fly(ctx context.Context, conn *CountingConn, f Flight, costs *stats.Costs) ([]Frame, error) {
	disarm, err := ArmContext(ctx, conn)
	if err != nil {
		return nil, err
	}
	m := startMeter(conn)
	var kept []Frame
	if f.Reply == nil {
		kept = make([]Frame, f.N)
	}
	// credits holds the window's free slots; a flight whose window covers
	// every request needs none. Every request but the last takes a slot and
	// every reply but the last gives one back. readFailed unblocks a writer
	// waiting for a slot once the reader has given up.
	var credits, readFailed chan struct{}
	if f.Window > 0 && f.Window < f.N {
		credits = make(chan struct{}, f.Window)
		for range f.Window {
			credits <- struct{}{}
		}
		readFailed = make(chan struct{})
	}
	// read takes the replies in order. It runs on a goroutine of its own
	// while the writer pipelines, and after the write for a lone request,
	// where there is nothing to overlap and the hand-off between two
	// goroutines would be the flight's only extra cost over a round trip.
	// consumed is written by the reader and read only after it has returned
	// (the readDone receive below orders the two).
	var consumed int
	read := func() error {
		var scratch *Buffer
		if kept == nil {
			scratch = GetBuffer()
			defer PutBuffer(scratch)
		}
		err := func() error {
			for i := range f.N {
				buf := scratch
				if kept != nil {
					buf = GetBuffer()
					kept[i].buf = buf
				}
				typ, payload, err := ReadFrameInto(conn, buf)
				if err != nil {
					return err
				}
				consumed++
				if kept != nil {
					kept[i].Type, kept[i].Payload = typ, payload
				} else if err := f.Reply(i, Frame{Type: typ, Payload: payload}); err != nil {
					return err
				}
				if credits != nil && i < f.N-1 {
					credits <- struct{}{}
				}
			}
			return nil
		}()
		if err != nil && readFailed != nil {
			close(readFailed)
		}
		return err
	}
	pipelined := f.N > 1
	var readDone chan error
	if pipelined {
		readDone = make(chan error, 1)
		go func() { readDone <- read() }()
	}

	var wrote int
	writeErr := func() error {
		for i := range f.N {
			if credits != nil && i < f.N-1 {
				select {
				case <-credits:
				case <-readFailed:
					return nil // the reader's error carries the cause
				}
			}
			// Cancellation check between requests: a long flight stops
			// writing promptly instead of discovering the dead context at
			// read time.
			if err := ctx.Err(); err != nil {
				return err
			}
			t, payload, err := f.Request(i)
			if err != nil {
				return err
			}
			if err := WriteFrame(conn, t, payload); err != nil {
				return err
			}
			wrote++
		}
		return nil
	}()
	var readErr error
	switch {
	case pipelined && writeErr != nil:
		// The reader may be waiting for replies that will never come; force
		// its pending read to fail. disarm clears the deadline below.
		conn.SetReadDeadline(aLongTimeAgo)
		readErr = <-readDone
	case pipelined:
		readErr = <-readDone
	case writeErr == nil:
		readErr = read()
	}
	m.charge(conn, costs)
	err = writeErr
	if err == nil {
		err = readErr
	}
	// A reply check that failed on an error frame leaves one reply in flight
	// for every request written but not yet answered. Drain them, so the
	// connection is left framed for the next exchange; if the drain itself
	// fails, hide the remote error from the unwrap chain (%v, not %w) so the
	// lease is classified broken.
	var remote *RemoteError
	if writeErr == nil && readErr != nil && consumed < wrote && errors.As(readErr, &remote) {
		if derr := drain(conn, wrote-consumed); derr != nil {
			err = fmt.Errorf("wire: flight failed: %v (draining %d in-flight replies: %w)",
				readErr, wrote-consumed, derr)
		}
	}
	if err = disarm(err); err != nil {
		ReleaseFrames(kept)
		return nil, err
	}
	return kept, nil
}

// drain reads and discards n replies under flightDrainTimeout; the context's
// cancellation still interrupts it.
func drain(conn *CountingConn, n int) error {
	conn.SetReadDeadline(time.Now().Add(flightDrainTimeout))
	defer conn.SetReadDeadline(time.Time{})
	buf := GetBuffer()
	defer PutBuffer(buf)
	for range n {
		if _, _, err := ReadFrameInto(conn, buf); err != nil {
			return err
		}
	}
	return nil
}

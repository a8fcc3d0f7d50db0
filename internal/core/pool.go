package core

import (
	"context"
	"errors"
	"fmt"
	"net"

	"simcloud/internal/wire"
	"sync"
)

// ErrClientClosed reports an operation on a closed client.
var ErrClientClosed = errors.New("core: client is closed")

// connPool is the connection-lease pool behind the networked clients: each
// operation leases one connection for its exchange and returns it, so any
// number of goroutines can share one client without interleaving frames on
// a single socket. Connections are dialed on demand (through the dial
// function, which performs the hello handshake), kept idle between leases,
// and discarded the moment an exchange on them fails — a connection with a
// partial frame in flight is unusable, never poolable.
type connPool struct {
	dial func(ctx context.Context) (*wire.CountingConn, error)

	mu     sync.Mutex
	idle   []*wire.CountingConn
	leased map[*wire.CountingConn]struct{}
	closed bool
	dialed uint64 // connections ever dialed (monotonic)
	broken uint64 // connections discarded as broken (monotonic)
}

// PoolStats is a point-in-time view of a client's connection-lease pool —
// the per-upstream serving depth an operator watches: Leased is the number
// of exchanges in flight right now, Idle the warm connections ready for
// the next ones, and the monotonic Dialed/Discarded counters expose churn
// (a climbing Discarded means exchanges keep poisoning their connections).
type PoolStats struct {
	Idle      int    `json:"idle"`
	Leased    int    `json:"leased"`
	Dialed    uint64 `json:"dialed"`
	Discarded uint64 `json:"discarded"`
}

// stats reports the pool's current depth and lifetime counters.
func (p *connPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Idle:      len(p.idle),
		Leased:    len(p.leased),
		Dialed:    p.dialed,
		Discarded: p.broken,
	}
}

func newConnPool(dial func(ctx context.Context) (*wire.CountingConn, error)) *connPool {
	return &connPool{dial: dial, leased: make(map[*wire.CountingConn]struct{})}
}

// maxIdle caps the connections kept warm between leases: a burst of N
// concurrent operations may dial up to N connections, but only this many
// survive the burst — the rest close on release, so a long-lived client
// does not pin one socket per historical peak goroutine.
const maxIdle = 8

// get leases a connection: an idle one when available, a freshly dialed one
// otherwise. The dial respects ctx (deadline and cancellation).
func (p *connPool) get(ctx context.Context) (*wire.CountingConn, error) {
	if err := ctx.Err(); err != nil {
		// A dead context leases nothing — and, in particular, does not pop
		// a healthy idle connection only to condemn it unused.
		return nil, fmt.Errorf("%w: %w", wire.ErrNotStarted, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.leased[conn] = struct{}{}
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()
	if p.dial == nil {
		return nil, errors.New("core: connection pool has no dialer")
	}
	conn, err := p.dial(ctx)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return nil, ErrClientClosed
	}
	p.dialed++
	p.leased[conn] = struct{}{}
	p.mu.Unlock()
	return conn, nil
}

// put returns a leased connection. A broken connection (its exchange
// failed at the transport level, timed out, or was cancelled mid-frame) is
// closed instead of pooled; the next operation dials fresh.
func (p *connPool) put(conn *wire.CountingConn, broken bool) {
	p.mu.Lock()
	delete(p.leased, conn)
	if broken {
		p.broken++
	}
	if broken || p.closed || len(p.idle) >= maxIdle {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

// putIdle seeds the pool with an already-established connection (the eager
// first connection a Dial opens to fail fast on unreachable servers).
func (p *connPool) putIdle(conn *wire.CountingConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return
	}
	p.dialed++
	p.idle = append(p.idle, conn)
}

// withConn runs one exchange on a leased connection: get, fn, put — with
// the broken-connection classification applied exactly once. Every
// networked operation (round trips and pipelined flights, encrypted and
// plain) goes through this helper, so the lease discipline cannot drift
// between call sites.
func (p *connPool) withConn(ctx context.Context, fn func(conn *wire.CountingConn) error) error {
	conn, err := p.get(ctx)
	if err != nil {
		return err
	}
	err = fn(conn)
	p.put(conn, connBroken(err))
	return err
}

// close closes every pooled connection — including leased ones, so
// operations blocked mid-read fail over promptly — and refuses further
// leases. Idempotent.
func (p *connPool) close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	leased := make([]*wire.CountingConn, 0, len(p.leased))
	for conn := range p.leased {
		leased = append(leased, conn)
	}
	p.mu.Unlock()
	var err error
	for _, conn := range idle {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	for _, conn := range leased {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// connBroken reports whether err poisons the connection it occurred on. An
// error frame the server answered (wire.RemoteError) leaves the connection
// perfectly framed and reusable, and an exchange aborted before any byte
// moved (wire.ErrNotStarted — the context was already dead) never touched
// it; everything else — transport errors, context interruptions, codec
// failures — means unknown bytes may be in flight, so the lease must not
// return to the pool.
func connBroken(err error) bool {
	if err == nil || errors.Is(err, wire.ErrNotStarted) {
		return false
	}
	var remote *wire.RemoteError
	return !errors.As(err, &remote)
}

// dialAndHello dials addr, performs the hello handshake under ctx, and
// verifies the server is the kind of deployment the caller can talk to.
// wantPivots > 0 additionally requires the server's index to be built over
// exactly that many pivots (the client key's pivot count — entries indexed
// under one pivot set are garbage under another). On ANY failure after the
// raw dial — handshake IO, a hello of the wrong shape, a mode or pivot
// mismatch — the connection is closed before the error returns: a failed
// Dial never leaks a socket.
func dialAndHello(ctx context.Context, addr string, wantMode uint8, wantPivots int) (*wire.CountingConn, error) {
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: dialing similarity cloud: %w", err)
	}
	conn := wire.NewCountingConn(raw)
	hello, err := helloHandshake(ctx, conn)
	if err == nil {
		err = checkHello(hello, wantMode, wantPivots)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// helloHandshake runs the MsgHello round trip under ctx.
func helloHandshake(ctx context.Context, conn *wire.CountingConn) (wire.HelloResp, error) {
	disarm, err := wire.ArmContext(ctx, conn)
	if err != nil {
		return wire.HelloResp{}, err
	}
	hello, err := func() (wire.HelloResp, error) {
		if err := wire.WriteFrame(conn, wire.MsgHello, wire.HelloReq{}.Encode()); err != nil {
			return wire.HelloResp{}, fmt.Errorf("core: hello handshake: %w", err)
		}
		respType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return wire.HelloResp{}, fmt.Errorf("core: hello handshake: %w", err)
		}
		if respType == wire.MsgError {
			m, derr := wire.DecodeErrorResp(payload)
			if derr != nil {
				return wire.HelloResp{}, derr
			}
			return wire.HelloResp{}, &wire.RemoteError{Msg: m.Msg}
		}
		if respType != wire.MsgHelloAck {
			return wire.HelloResp{}, fmt.Errorf("core: unexpected hello response %v", respType)
		}
		return wire.DecodeHelloResp(payload)
	}()
	if err := disarm(err); err != nil {
		return wire.HelloResp{}, err
	}
	return hello, nil
}

// checkHello validates the handshake: the server must speak this build's
// protocol version, the deployment mode must match the client flavor, and
// for encrypted clients the server's pivot count must match the key's.
func checkHello(hello wire.HelloResp, wantMode uint8, wantPivots int) error {
	if err := hello.CheckVersion(); err != nil {
		return fmt.Errorf("core: hello handshake: %w", err)
	}
	if hello.Mode != wantMode {
		return fmt.Errorf("core: server runs the %s deployment, this client speaks the %s protocol",
			helloModeName(hello.Mode), helloModeName(wantMode))
	}
	if wantPivots > 0 && int(hello.NumPivots) != wantPivots {
		return fmt.Errorf("core: server index uses %d pivots, client key has %d — wrong key for this cloud",
			hello.NumPivots, wantPivots)
	}
	return nil
}

func helloModeName(mode uint8) string {
	switch mode {
	case wire.HelloModeEncrypted:
		return "encrypted"
	case wire.HelloModePlain:
		return "plain"
	}
	return fmt.Sprintf("mode(%d)", mode)
}

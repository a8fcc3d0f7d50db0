// Package cluster implements the multi-node similarity cloud: a
// coordinator that fronts N encrypted simserver nodes over the ordinary
// wire protocol and speaks that same protocol to clients, so an
// EncryptedClient points at a coordinator exactly as it would at a single
// server — no client change, no key change.
//
// Placement follows the same rule the in-process engine uses for shards:
// an entry whose pivot permutation starts with pivot p lives on node
// p mod N (over the currently live nodes), so every first-level Voronoi
// cell is wholly contained in exactly one node. Every read fans out as a
// ranked MsgBatchQuery and the per-node answers are folded by
// merge.Combine — range results concatenate, approximate candidate streams
// merge by the shared (promise, prefix, source) order: one combine rule,
// two call sites (engine across shards, coordinator across nodes) — so a
// multi-node cluster reproduces the single-server candidate list exactly
// (see DESIGN.md §Distribution for the preconditions). The coordinator is a
// merger of small keys, not a second copy of every ciphertext: node replies
// land in pooled frames, are decoded by reference, and each winner's encoded
// record is appended to the client-ward reply straight out of its frame
// (combine.go; the frames are leased and released within one function).
//
// At startup the coordinator hellos every node and refuses to federate
// nodes that are unreachable or key-incompatible (different pivot count,
// tree depth, bucket capacity or ranking strategy — entries indexed under
// one pivot set are garbage under another). Node failure at runtime is
// handled with retry-with-exclusion: a node whose connection fails is
// marked down, and the failed portion of the operation is re-routed over
// the surviving nodes. Down nodes are periodically re-probed
// (Options.ReprobeInterval, or ProbeDownNodes directly) and re-admitted
// after a fresh shape check.
//
// With Options.Replicas R > 1 every entry is stored on R nodes chosen by
// its first-level cell (see replicate.go): writes fan to all owners with
// missed writes journaled for re-admission replay, and reads assign each
// cell to one live owner via the request's allow-list — so the cluster keeps
// answering exactly, with byte-identical candidate lists, while any R-1 of
// a cell's owners are down.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simcloud/internal/fanout"
	"simcloud/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// DialTimeout bounds each node dial + hello at startup. Default 5s.
	DialTimeout time.Duration
	// NodeTimeout bounds each request round trip to a node; a node that
	// exceeds it is treated as failed (marked down, operation re-routed).
	// 0 (the default) waits indefinitely.
	NodeTimeout time.Duration
	// Replicas is the number of nodes storing each entry (R). Must be at
	// most the node count; 0 or 1 keeps one copy per entry (the
	// unreplicated placement). See replicate.go for the R > 1 semantics.
	Replicas int
	// ReprobeInterval is how often down nodes are re-dialed and, if healthy
	// and shape-compatible, re-admitted (after journal replay when
	// replicated). 0 disables the background loop; ProbeDownNodes still
	// probes on demand.
	ReprobeInterval time.Duration
	// Logf receives connection-level failures; defaults to log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Coordinator federates N encrypted simserver nodes behind one listening
// address speaking the standard wire protocol.
type Coordinator struct {
	opts     Options
	nodes    []*node
	info     wire.HelloResp // the agreed index shape (validated across nodes)
	pool     *fanout.Pool
	replicas int

	// journalMu guards the per-node re-sync journals and serializes the
	// down→live transition of re-admission against concurrent replica
	// writes (see deliverOrJournal / readmit in replicate.go).
	journalMu sync.Mutex
	journals  [][]wire.ResyncOp

	// mixed records that an unreplicated cluster re-admitted a node, mixing
	// placement epochs: deletes must broadcast from then on even when every
	// node is live.
	mixed atomic.Bool

	// ctx is the coordinator's lifetime context: Close cancels it, which
	// aborts fan-out retry loops between waves and interrupts node round
	// trips blocked mid-read (NodeTimeout 0), so shutdown never waits on a
	// hung node.
	ctx    context.Context
	cancel context.CancelFunc

	// connMu guards the client-facing listener and connection registry,
	// exactly like internal/server: Start, accept-loop registration,
	// deregistration and Close all synchronize here.
	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// node is one federated simserver: its address, its (mutex-serialized)
// coordinator connection, and its liveness flag. A node marked down stays
// down until a probe re-dials it and re-admission succeeds — including the
// shape re-check and (when replicated) the journal replay that brings its
// data back in sync.
type node struct {
	id   int
	addr string
	// mu serializes round trips; connMu guards only the conn pointer, so
	// Coordinator.Close can close the socket of a round trip that is
	// blocked mid-read (NodeTimeout 0) without waiting behind mu.
	mu     sync.Mutex
	connMu sync.Mutex
	conn   net.Conn
	down   atomic.Bool
}

func (n *node) getConn() net.Conn {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.conn
}

// setConn installs a fresh connection (re-admission), closing any stale one.
func (n *node) setConn(conn net.Conn) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.conn != nil {
		n.conn.Close()
	}
	n.conn = conn
}

// closeConn closes and clears the connection; safe to call concurrently
// with an in-flight roundTrip (whose blocked read then fails over to the
// node-down path).
func (n *node) closeConn() {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.conn != nil {
		n.conn.Close()
		n.conn = nil
	}
}

// nodeDownError marks a transport-level node failure, as opposed to an
// application error the node itself reported (wire.RemoteError). Transport
// failures trigger re-routing; application errors propagate to the client.
type nodeDownError struct {
	addr string
	err  error
}

func (e *nodeDownError) Error() string {
	return fmt.Sprintf("cluster: node %s failed: %v", e.addr, e.err)
}

func (e *nodeDownError) Unwrap() error { return e.err }

func isNodeDown(err error) bool {
	var nd *nodeDownError
	return errors.As(err, &nd)
}

// errNoLiveNodes reports a cluster with every node marked down.
var errNoLiveNodes = errors.New("cluster: no live nodes")

// New connects to every node, verifies mutual key-compatibility via the
// hello handshake, and returns a coordinator ready to Start. It fails fast
// — unreachable node, plain-mode node, or any disagreement in pivot count,
// tree depth, bucket capacity or ranking — because a misassembled cluster
// would not crash, it would silently return wrong candidate sets.
func New(addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: at least one node address is required")
	}
	o := opts.withDefaults()
	if o.Replicas < 0 || o.Replicas > len(addrs) {
		return nil, fmt.Errorf("cluster: %d replicas need %d nodes, got %d", o.Replicas, o.Replicas, len(addrs))
	}
	c := &Coordinator{
		opts:     o,
		replicas: o.Replicas,
		journals: make([][]wire.ResyncOp, len(addrs)),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	ok := false
	defer func() {
		if !ok {
			c.closeNodes()
		}
	}()
	for i, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", addr, err)
		}
		c.nodes = append(c.nodes, &node{id: i, addr: addr, conn: conn})
	}
	for i, n := range c.nodes {
		info, err := c.hello(n)
		if err != nil {
			return nil, err
		}
		if err := c.admit(i, info); err != nil {
			return nil, err
		}
	}
	c.pool = fanout.New(min(len(c.nodes), max(2, runtime.GOMAXPROCS(0))))
	if o.ReprobeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop(o.ReprobeInterval)
	}
	ok = true
	return c, nil
}

// hello performs the identification round trip with one node. It runs at
// assembly time only, so it is bounded by DialTimeout: a node that accepts
// the connection but never answers must fail New loudly, not hang it.
func (c *Coordinator) hello(n *node) (wire.HelloResp, error) {
	respType, payload, err := n.roundTrip(c.ctx, wire.MsgHello, wire.HelloReq{}.Encode(), c.opts.DialTimeout)
	if err != nil {
		return wire.HelloResp{}, err
	}
	if respType != wire.MsgHelloAck {
		return wire.HelloResp{}, fmt.Errorf("cluster: node %s: unexpected hello response %v", n.addr, respType)
	}
	return wire.DecodeHelloResp(payload)
}

// admit checks node i's hello against the cluster's agreed shape (set by
// node 0) and rejects any mismatch.
func (c *Coordinator) admit(i int, info wire.HelloResp) error {
	if i == 0 {
		c.info = info
	}
	return c.checkShape(c.nodes[i].addr, info)
}

// checkShape validates one node's hello against the cluster's agreed index
// shape — at assembly and again at every re-admission, because a node
// restarted with different parameters would not crash the cluster, it
// would silently return wrong candidate sets.
func (c *Coordinator) checkShape(addr string, info wire.HelloResp) error {
	if err := info.CheckVersion(); err != nil {
		return fmt.Errorf("cluster: node %s: %w", addr, err)
	}
	if info.Mode != wire.HelloModeEncrypted {
		return fmt.Errorf("cluster: node %s runs the plain deployment; the coordinator federates encrypted nodes only", addr)
	}
	if len(c.nodes) > 1 && !info.EagerRootSplit {
		return fmt.Errorf("cluster: node %s does not split its root cell eagerly; "+
			"multi-node clusters require it (start simserver with -eager-root-split or -shards > 1) "+
			"so per-node promise values stay comparable in the cross-node merge", addr)
	}
	ref := c.info
	if info.NumPivots != ref.NumPivots || info.MaxLevel != ref.MaxLevel ||
		info.BucketCapacity != ref.BucketCapacity || info.Ranking != ref.Ranking {
		return fmt.Errorf("cluster: node %s is key-incompatible with node %s: "+
			"pivots %d vs %d, max level %d vs %d, bucket %d vs %d, ranking %d vs %d",
			addr, c.nodes[0].addr,
			info.NumPivots, ref.NumPivots, info.MaxLevel, ref.MaxLevel,
			info.BucketCapacity, ref.BucketCapacity, info.Ranking, ref.Ranking)
	}
	return nil
}

// roundTrip performs one request/response exchange with the node and
// returns the reply in a payload slice of its own (see roundTripInto).
func (n *node) roundTrip(ctx context.Context, t wire.MsgType, payload []byte, timeout time.Duration) (wire.MsgType, []byte, error) {
	return n.roundTripInto(ctx, t, payload, timeout, new(wire.Buffer))
}

// roundTripInto performs one request/response exchange with the node,
// serialized on the node's connection, under ctx plus the per-round-trip
// timeout (whichever fires first): the effective deadline becomes the
// connection's read/write deadline via wire.ArmContext, so a node that
// stalls mid-response cannot hang the coordinator past its bound. The reply
// is read into frame and the returned payload aliases it: it lives as long
// as the caller's lease on frame does. Any transport failure closes the
// connection, marks the node down and returns a nodeDownError; an error
// frame from the node is returned as a wire.RemoteError with the node still
// up.
func (n *node) roundTripInto(ctx context.Context, t wire.MsgType, payload []byte, timeout time.Duration, frame *wire.Buffer) (wire.MsgType, []byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	conn := n.getConn()
	if conn == nil {
		return 0, nil, &nodeDownError{addr: n.addr, err: errors.New("connection closed")}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	disarm, err := wire.ArmContext(ctx, conn)
	if err != nil {
		return 0, nil, err // coordinator shutting down; not the node's fault
	}
	fail := func(err error) (wire.MsgType, []byte, error) {
		n.closeConn()
		n.down.Store(true)
		return 0, nil, &nodeDownError{addr: n.addr, err: err}
	}
	respType, resp, err := func() (wire.MsgType, []byte, error) {
		if err := wire.WriteFrame(conn, t, payload); err != nil {
			return 0, nil, err
		}
		return wire.ReadFrameInto(conn, frame)
	}()
	if err = disarm(err); err != nil {
		return fail(err)
	}
	if respType == wire.MsgError {
		m, derr := wire.DecodeErrorResp(resp)
		if derr != nil {
			return fail(derr)
		}
		return 0, nil, &wire.RemoteError{Msg: m.Msg}
	}
	return respType, resp, nil
}

// alive returns the currently live nodes, in node-id order. The order
// matters: it is the concatenation order for range results and the source
// order for the ranked merge, so it must be deterministic.
func (c *Coordinator) alive() []*node {
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.down.Load() {
			out = append(out, n)
		}
	}
	return out
}

// NumNodes returns the configured node count.
func (c *Coordinator) NumNodes() int { return len(c.nodes) }

// LiveNodes returns the addresses of the nodes currently considered live.
func (c *Coordinator) LiveNodes() []string {
	var out []string
	for _, n := range c.alive() {
		out = append(out, n.addr)
	}
	return out
}

// Info returns the agreed index shape the nodes were admitted under.
func (c *Coordinator) Info() wire.HelloResp { return c.info }

// Start begins listening for clients on addr (use "127.0.0.1:0" for an
// ephemeral loopback port).
func (c *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		ln.Close()
		return errors.New("cluster: coordinator already closed")
	}
	if c.ln != nil {
		c.connMu.Unlock()
		ln.Close()
		return errors.New("cluster: coordinator already started")
	}
	c.ln = ln
	c.conns = make(map[net.Conn]struct{})
	c.wg.Add(1)
	c.connMu.Unlock()
	go c.acceptLoop(ln)
	return nil
}

// Addr returns the client-facing listening address (valid after Start).
func (c *Coordinator) Addr() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.connMu.Lock()
		if c.closed {
			c.connMu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.connMu.Unlock()
		go c.serveConn(conn)
	}
}

// Close stops the listener, closes client connections, stops the fan-out
// pool and disconnects from the nodes (the nodes themselves keep running).
// Idempotent and safe against concurrent Start and in-flight requests.
func (c *Coordinator) Close() error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	for conn := range c.conns {
		conn.Close()
	}
	c.connMu.Unlock()
	// Cancel the lifetime context first: fan-out retry loops stop between
	// waves and armed node round trips get interrupted.
	c.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Close node connections BEFORE waiting for the serve goroutines: a
	// handler blocked mid-round-trip on a hung node (NodeTimeout 0) only
	// unblocks when its node socket dies; waiting first would deadlock
	// shutdown.
	c.closeNodes()
	c.wg.Wait()
	// A probe racing the first closeNodes may have installed a fresh node
	// connection before observing the cancelled context; now that every
	// goroutine has exited, close whatever is left.
	c.closeNodes()
	if c.pool != nil {
		c.pool.Close()
	}
	return err
}

func (c *Coordinator) closeNodes() {
	for _, n := range c.nodes {
		n.closeConn()
	}
}

func (c *Coordinator) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
		conn.Close()
	}()
	for {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return // client disconnected or sent garbage framing
		}
		if err := c.serve(conn, typ, payload); err != nil {
			c.opts.Logf("simcoord: writing response to %s: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// serve answers one request. Candidate replies are assembled in a pooled
// buffer that goes back to the pool once the client-ward write is done, so
// an idle connection pins nothing and an outsized reply (a download-all) is
// dropped rather than kept.
func (c *Coordinator) serve(conn net.Conn, typ wire.MsgType, payload []byte) error {
	out := wire.GetBuffer()
	defer wire.PutBuffer(out)
	respType, respPayload := c.dispatch(typ, payload, out)
	return wire.WriteFrame(conn, respType, respPayload)
}

// Package cluster implements the multi-node similarity cloud: a
// coordinator that fronts N encrypted simserver nodes over the ordinary
// wire protocol and speaks that same protocol to clients, so an
// EncryptedClient points at a coordinator exactly as it would at a single
// server — no client change, no key change.
//
// Placement is static and has one rule for every replica count R
// (Options.Replicas, default 1; see replicate.go): an entry whose pivot
// permutation starts with pivot p lives on the R nodes (p mod N + j) mod N,
// j < R, of the configured node list, so every first-level Voronoi cell is
// wholly contained in each of its owners — at R = 1 the same cell-to-node
// map the in-process engine uses for shards. Every read assigns each cell to
// one live owner and fans out as a ranked, pivot-filtered MsgBatchQuery, and
// the per-node answers are folded by merge.Combine — range results
// concatenate, approximate candidate streams merge by the shared (promise,
// prefix, source) order: one combine rule, two call sites (engine across
// shards, coordinator across nodes) — so a multi-node cluster reproduces
// the single-server candidate list exactly
// (see DESIGN.md §Distribution for the preconditions). An approximate read
// answered by several nodes asks them for per-cell counts first, and then
// fetches from each only its share of the merge's winners. The coordinator
// is a merger of small keys, not a second copy of every ciphertext: node replies
// land in pooled frames, are decoded by reference, and each winner's encoded
// record is appended to the client-ward reply straight out of its frame
// (combine.go; the frames are leased and released within one function).
//
// Each node is reached over one wire.Link, the connection type every hop
// uses: every connection it dials is hello'd, and the coordinator refuses to
// federate nodes that are unreachable or key-incompatible (different pivot
// count, tree depth, bucket capacity or ranking strategy — entries indexed
// under one pivot set are garbage under another). Reads lease the link's
// connections concurrently; writes keep per-node order on a write lane.
// A node whose connection fails at runtime is marked down and its link
// closed. Writes fan to every owner of a cell, with a down owner's share
// journaled for re-admission replay, and are acknowledged only once some
// owner applied each entry; reads retry over a fresh owner assignment. So
// the cluster keeps answering exactly, with byte-identical candidate lists,
// while any R-1 of a cell's owners are down, and refuses the cell, naming
// it, while all R are — at R = 1, while its one owner is. Down nodes are
// periodically re-probed (Options.ReprobeInterval, or ProbeDownNodes
// directly) and re-admitted on a fresh link after a fresh shape check and
// the replay of the writes they missed.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"simcloud/internal/fanout"
	"simcloud/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// DialTimeout bounds each node dial + hello: at startup, at re-admission,
	// and whenever a request finds no idle connection to the node and its
	// link dials one. A runtime dial that fails or times out counts as a
	// node failure: the node is marked down, its share of a write journaled
	// and a read re-planned over the live owners. Default 5s.
	DialTimeout time.Duration
	// NodeTimeout bounds each request round trip to a node; a node that
	// exceeds it is treated as failed, as a failed dial is. 0 (the default)
	// waits indefinitely.
	NodeTimeout time.Duration
	// Replicas is the number of nodes storing each entry (R), at most the
	// node count; 0 means 1. Every R places by the same static rule (see
	// replicate.go): a cell stays readable and writable while one of its R
	// owners is live.
	Replicas int
	// ReprobeInterval is how often down nodes are re-dialed and, if healthy
	// and shape-compatible, re-admitted after journal replay. 0 disables the
	// background loop; ProbeDownNodes still probes on demand.
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

	// probeMu makes re-admission single-flight (see ProbeDownNodes).
	probeMu sync.Mutex

	// journalMu guards the per-node re-sync journals and serializes the
	// down→live transition of re-admission against concurrent replica
	// writes (see deliverOrJournal / readmit in replicate.go).
	// journalSettled, on journalMu, signals that inserts filled their
	// pending journal placeholders.
	journalMu      sync.Mutex
	journalSettled sync.Cond
	journals       [][]*journalOp

	// ctx is the coordinator's lifetime context: Close cancels it, which
	// aborts fan-out retry loops between waves and interrupts node round
	// trips blocked mid-read (NodeTimeout 0), so shutdown never waits on a
	// hung node.
	ctx    context.Context
	cancel context.CancelFunc

	// front serves the clients with handle; its Cut ends the coordinator's
	// lifetime once the drain is over (see Close).
	front wire.Server
	// probing tracks the re-probe loop.
	probing sync.WaitGroup
}

// node is one federated simserver: its address, its link — the pooled
// coordinator connections every request to the node leases one of — and its
// liveness flag. Reads lease connections concurrently; writes additionally
// hold the node's write lane, so they reach the node in the order the
// coordinator issued them. A node marked down stays down until a probe
// re-dials it and re-admission succeeds — including the shape re-check and
// the journal replay that brings its data back in sync — and installs a
// fresh link.
type node struct {
	id   int
	addr string
	link atomic.Pointer[wire.Link]
	// write is the node's write lane: inserts, ingest chunks and ends,
	// deletes and re-syncs hold it across their round trip, because journal
	// replay and the node's WAL depend on per-node write order.
	write sync.Mutex
	down  atomic.Bool
}

// nodeDownError marks a transport-level node failure, as opposed to an
// application error the node itself reported (wire.RemoteError). Transport
// failures mark the node down, so a write journals the node's share and a
// read re-plans; application errors propagate to the client.
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
	if o.Replicas < 0 {
		return nil, fmt.Errorf("cluster: replica count %d is negative", o.Replicas)
	}
	if o.Replicas > len(addrs) {
		return nil, fmt.Errorf("cluster: %d replicas need %d nodes, got %d", o.Replicas, o.Replicas, len(addrs))
	}
	c := &Coordinator{
		opts:     o,
		replicas: o.Replicas,
		journals: make([][]*journalOp, len(addrs)),
	}
	c.journalSettled.L = &c.journalMu
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.front = wire.Server{
		Handler: c.handle,
		Logf:    o.Logf,
		Cut: func() {
			c.cancel()
			c.closeNodes()
		},
	}
	ok := false
	defer func() {
		if !ok {
			c.closeNodes()
		}
	}()
	// Node 0's hello sets the agreed shape; every connection to any node,
	// node 0's own included, is then checked against it.
	conn, err := wire.Dialer(addrs[0], o.DialTimeout, func(info wire.HelloResp) error {
		c.info = info
		return nil
	})(c.ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", addrs[0], err)
	}
	conn.Close()
	for i, addr := range addrs {
		n := &node{id: i, addr: addr}
		n.link.Store(c.dialNode(addr))
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		if err := n.link.Load().Warm(c.ctx); err != nil {
			return nil, err
		}
	}
	// The fan-out workers bound the coordinator's node round trips in flight.
	// Nodes serve reads side by side, so two per node lets two client
	// requests reach every node at once. Two is also what the load asks for:
	// over a chain_refine run (two senders, three nodes, R=2) every node's
	// link peaked at two leases and dialed two connections (NodeLinks), far
	// under the wire.MaxIdle a link keeps warm, so no lease dials twice.
	c.pool = fanout.New(2 * len(c.nodes))
	if o.ReprobeInterval > 0 {
		c.probing.Add(1)
		go c.probeLoop(o.ReprobeInterval)
	}
	ok = true
	return c, nil
}

// dialNode returns the link to the node at addr. Every connection it dials
// passes the hello handshake and the shape check, bounded by DialTimeout: a
// node that accepts connections but never answers must fail loudly, not
// hang, and a node restarted with different parameters is refused on its
// first new connection.
func (c *Coordinator) dialNode(addr string) *wire.Link {
	return wire.NewLink(wire.Dialer(addr, c.opts.DialTimeout, func(info wire.HelloResp) error {
		return c.checkShape(addr, info)
	}))
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

// roundTrip performs one request/response exchange with the node on a
// leased connection of its link, under ctx plus the per-round-trip timeout
// (whichever fires first), so a node that stalls mid-response cannot hang
// the coordinator past its bound. The reply is read into frame and the
// returned payload aliases it: it lives as long as the caller's lease on
// frame does. Reads (batch queries and hellos) run side by side; every other
// request is a write and holds the node's write lane. Any transport failure
// marks the node down and closes its whole link — so the node's other
// requests in flight fail over at once — and returns a nodeDownError; an
// error frame from the node is returned as a wire.RemoteError with the node
// still up.
func (n *node) roundTrip(ctx context.Context, t wire.MsgType, payload []byte, timeout time.Duration, frame *wire.Buffer) (wire.MsgType, []byte, error) {
	if t != wire.MsgBatchQuery && t != wire.MsgHello {
		n.write.Lock()
		defer n.write.Unlock()
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	link := n.link.Load()
	respType, resp, err := link.RoundTrip(ctx, t, payload, frame, nil)
	var remote *wire.RemoteError
	if err == nil || errors.As(err, &remote) || errors.Is(err, wire.ErrNotStarted) {
		return respType, resp, err // an ErrNotStarted is the coordinator shutting down, not the node's fault
	}
	link.Close()
	// A link re-admission has replaced since belongs to an earlier outage.
	if n.link.Load() == link {
		n.down.Store(true)
	}
	return 0, nil, &nodeDownError{addr: n.addr, err: err}
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

// NodeLinks reports each node's link (in node-id order): the coordinator
// connections leased and idle right now, the most ever leased at once, and
// the dial and discard counts since the node's last (re-)admission.
func (c *Coordinator) NodeLinks() []wire.LinkStats {
	out := make([]wire.LinkStats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.link.Load().Stats()
	}
	return out
}

// Info returns the agreed index shape the nodes were admitted under.
func (c *Coordinator) Info() wire.HelloResp { return c.info }

// Start begins listening for clients on addr (use "127.0.0.1:0" for an
// ephemeral loopback port).
func (c *Coordinator) Start(addr string) error { return c.front.Start(addr) }

// Addr returns the client-facing listening address (valid after Start).
func (c *Coordinator) Addr() string { return c.front.Addr() }

// Close stops serving clients and disconnects from the nodes, which keep
// running. It drains first (wire.Server.Close), so a write in flight
// reaches every owner rather than a journal. Then it cancels the lifetime
// context and closes the node links BEFORE it waits for the handlers: one
// blocked on a hung node (NodeTimeout 0) ends only when its socket dies.
// Idempotent and safe against Start and requests in flight.
func (c *Coordinator) Close() error {
	err := c.front.Close()
	c.probing.Wait()
	// A probe racing the first closeNodes may have installed a fresh node
	// link before observing the cancelled context; now that every goroutine
	// has exited, close whatever is left.
	c.closeNodes()
	if c.pool != nil {
		c.pool.Close()
	}
	return err
}

func (c *Coordinator) closeNodes() {
	for _, n := range c.nodes {
		n.link.Load().Close()
	}
}

package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"simcloud/internal/mindex"
	"simcloud/internal/wire"
)

// Placement (Options.Replicas R ≥ 1, one rule for every R). Ownership is
// static: the entry permutation's first pivot p places its R copies on nodes
// (p mod N + j) mod N for j < R, over the CONFIGURED node list — never the
// live subset, so ownership is reconstructible across node deaths and
// re-admissions. Writes fan to every owner; an owner that is down (or dies
// mid-delivery) has the operation journaled in arrival order and replayed
// during re-admission, before the node is marked live again — an insert
// without the entries only a refusing owner held. Reads assign every
// first-level cell to its first live owner and fan out as pivot-filtered
// queries, so each entry is served by exactly one node no matter how many
// replicas store it. A cell whose every owner is down is refused, to reads
// and writes alike, until one is re-admitted (see DESIGN.md §Replication).

// validatePerm rejects entry permutations that cannot be routed. Entries
// arrive straight off the wire, so a hostile first element must become an
// error response, not a negative slice index.
func (c *Coordinator) validatePerm(perm []int32) error {
	if len(perm) == 0 {
		return fmt.Errorf("cluster: entry permutation is empty")
	}
	if perm[0] < 0 || uint32(perm[0]) >= c.info.NumPivots {
		return fmt.Errorf("cluster: permutation element %d out of range [0,%d)", perm[0], c.info.NumPivots)
	}
	return nil
}

// owners returns first-level cell p's static replica set in preference
// order: the first element is the cell's home node, the rest its backups.
func (c *Coordinator) owners(p int32) []*node {
	out := make([]*node, c.replicas)
	base := int(p) % len(c.nodes)
	for j := range out {
		out[j] = c.nodes[(base+j)%len(c.nodes)]
	}
	return out
}

// liveOwner returns the first live owner of cell p, or an error naming the
// cell when every replica is down.
func (c *Coordinator) liveOwner(p int32) (*node, error) {
	for _, n := range c.owners(p) {
		if !n.down.Load() {
			return n, nil
		}
	}
	return nil, noLiveReplica(p)
}

// noLiveReplica refuses a read or write that needs cell p, which has no live owner.
func noLiveReplica(p int32) error {
	return fmt.Errorf("cluster: no live replica for pivot %d: %w", p, errNoLiveNodes)
}

// journalOp is one entry of a node's re-sync journal. An insert is journaled
// as a pending placeholder the moment its owner is found down — so it keeps
// its arrival order against later writes, a delete of the same entry
// included — and filled with its entries once the chunk's outcome is known;
// readmit replays nothing at or past a pending op. A delete is journaled
// complete.
type journalOp struct {
	op      wire.ResyncOp
	pending bool
}

// deliverOrJournal delivers one write to a replica by calling send, or, if
// the replica is down, appends op to its journal for re-admission replay,
// and reports whether it journaled. The down check happens under journalMu —
// the same lock readmit holds when it drains the journal and marks the node
// live — so an operation is either journaled while the node is still down
// (the drain loop picks it up) or sent to a node whose journal is already
// empty; it can never fall between. A down replica is journaled even after
// ctx ends: its co-owners may already hold the write.
func (c *Coordinator) deliverOrJournal(ctx context.Context, n *node, op *journalOp, send func() error) (journaled bool, err error) {
	for {
		c.journalMu.Lock()
		if n.down.Load() {
			c.journals[n.id] = append(c.journals[n.id], op)
			c.journalMu.Unlock()
			return true, nil
		}
		c.journalMu.Unlock()
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("cluster: replica delivery aborted: %w", err)
		}
		err := send()
		if isNodeDown(err) {
			c.opts.Logf("simcoord: %v; journaling its share for re-sync", err)
			continue // the down check now journals
		}
		return false, err
	}
}

// insertReplicated fans each entry to all R owners of its first-level cell
// in one wave: live owners get their share as one chunk, down owners (and
// owners that die mid-delivery) a pending journal placeholder. Once the wave
// is over, each placeholder is filled with the entries of its share that
// some owner applied, or that no owner failed on — an entry only some owner
// refused (say, `entry ID already indexed`) is left out, because replaying
// it would leave one replica holding a write the others never took. The
// chunk is refused before any delivery if some entry has no live owner, and
// acknowledged only once some owner applied every entry — never on journal
// entries alone. An entry whose every owner died mid-delivery stays
// journaled: like a single server's dropped connection, an unacknowledged
// write has an unknown outcome.
func (c *Coordinator) insertReplicated(ctx context.Context, entries []mindex.Entry) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: insert aborted: %w", err)
	}
	groups := make([][]mindex.Entry, len(c.nodes))
	for _, e := range entries {
		if err := c.validatePerm(e.Perm); err != nil {
			return err
		}
		if _, err := c.liveOwner(e.Perm[0]); err != nil {
			return err
		}
		for _, n := range c.owners(e.Perm[0]) {
			groups[n.id] = append(groups[n.id], e)
		}
	}
	applied := make([]bool, len(c.nodes))
	failed := make([]bool, len(c.nodes))
	held := make([]*journalOp, len(c.nodes))
	err := c.pool.Run(len(c.nodes), func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		n, op := c.nodes[i], &journalOp{op: wire.ResyncOp{Op: wire.ResyncInsert}, pending: true}
		journaled, err := c.deliverOrJournal(ctx, n, op, func() error { return c.sendChunk(ctx, n, groups[i]) })
		if journaled {
			held[i] = op
		}
		applied[i], failed[i] = !journaled && err == nil, err != nil
		return err
	})
	by := func(outcome []bool) func(*node) bool { return func(n *node) bool { return outcome[n.id] } }
	c.journalMu.Lock()
	for i, op := range held {
		if op == nil {
			continue
		}
		for _, e := range groups[i] {
			if owners := c.owners(e.Perm[0]); slices.ContainsFunc(owners, by(applied)) || !slices.ContainsFunc(owners, by(failed)) {
				op.op.Entries = append(op.op.Entries, e)
			}
		}
		op.pending = false
	}
	c.journalSettled.Broadcast()
	c.journalMu.Unlock()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !slices.ContainsFunc(c.owners(e.Perm[0]), by(applied)) {
			return noLiveReplica(e.Perm[0])
		}
	}
	return nil
}

// deleteReplicated removes each reference from all R owners in two waves
// per retry round. Wave one deletes from each reference's primary (first
// live owner) only and sums the acknowledged counts; wave two propagates to
// the remaining owners via deliverOrJournal, but only for references whose
// primary acknowledged. A reference whose primary died mid-wave retries the
// whole round instead: its replica copies are untouched, so the retry's new
// primary still holds the entry and the count stays exact — propagating
// eagerly would let the retry land on an owner that already deleted its
// copy and report zero.
func (c *Coordinator) deleteReplicated(ctx context.Context, refs []mindex.Entry) (uint32, error) {
	var deleted atomic.Uint32
	remaining := refs
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return deleted.Load(), fmt.Errorf("cluster: delete aborted: %w", err)
		}
		primGroups := make([][]mindex.Entry, len(c.nodes))
		for _, e := range remaining {
			if err := c.validatePerm(e.Perm); err != nil {
				return deleted.Load(), err
			}
			prim, err := c.liveOwner(e.Perm[0])
			if err != nil {
				return deleted.Load(), err
			}
			primGroups[prim.id] = append(primGroups[prim.id], e)
		}
		failed := make([][]mindex.Entry, len(c.nodes))
		acked := make([][]mindex.Entry, len(c.nodes))
		err := c.pool.Run(len(c.nodes), func(i int) error {
			g := primGroups[i]
			if len(g) == 0 {
				return nil
			}
			n, err := c.sendDelete(ctx, c.nodes[i], g)
			if isNodeDown(err) {
				c.opts.Logf("simcoord: %v; retrying %d delete refs", err, len(g))
				failed[i] = g
				return nil
			}
			if err != nil {
				return err
			}
			deleted.Add(n)
			acked[i] = g
			return nil
		})
		if err != nil {
			return deleted.Load(), err
		}
		repGroups := make([][]mindex.Entry, len(c.nodes))
		for pi, g := range acked {
			for _, e := range g {
				for _, n := range c.owners(e.Perm[0]) {
					if n.id != pi {
						repGroups[n.id] = append(repGroups[n.id], e)
					}
				}
			}
		}
		err = c.pool.Run(len(c.nodes), func(i int) error {
			if len(repGroups[i]) == 0 {
				return nil
			}
			n, op := c.nodes[i], &journalOp{op: wire.ResyncOp{Op: wire.ResyncDelete, Entries: repGroups[i]}}
			_, err := c.deliverOrJournal(ctx, n, op, func() error {
				_, err := c.sendDelete(ctx, n, repGroups[i])
				return err
			})
			return err
		})
		if err != nil {
			return deleted.Load(), err
		}
		remaining = remaining[:0:0]
		for _, g := range failed {
			remaining = append(remaining, g...)
		}
	}
	return deleted.Load(), nil
}

// assignReadOwners maps every first-level cell onto its first live owner,
// returning one allowed-cell list per node (empty for nodes serving no
// cells this wave). It fails when some cell has every replica down — the
// cluster cannot answer exactly and must say so rather than return a
// silently short result.
func (c *Coordinator) assignReadOwners() ([][]int32, error) {
	allow := make([][]int32, len(c.nodes))
	for p := int32(0); uint32(p) < c.info.NumPivots; p++ {
		n, err := c.liveOwner(p)
		if err != nil {
			return nil, err
		}
		allow[n.id] = append(allow[n.id], p)
	}
	return allow, nil
}

// ProbeDownNodes attempts to re-admit every node currently marked down and
// returns how many came back. Re-admission re-dials the node, re-validates
// its index shape via the hello handshake, replays the journaled writes it
// missed, and only then marks it live. The background loop (Options.
// ReprobeInterval) calls this periodically; tests call it directly for a
// deterministic probe. Probes are single-flight: a call made while another
// runs waits for it, so two re-admissions of one node never interleave.
func (c *Coordinator) ProbeDownNodes(ctx context.Context) int {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	readmitted := 0
	for _, n := range c.nodes {
		if !n.down.Load() {
			continue
		}
		if err := c.readmit(ctx, n); err != nil {
			c.opts.Logf("simcoord: node %s stays down: %v", n.addr, err)
			continue
		}
		c.opts.Logf("simcoord: node %s re-admitted", n.addr)
		readmitted++
	}
	return readmitted
}

// readmit brings one down node back: a fresh link whose first connection
// passes the hello shape check, journal replay, then (under journalMu, with
// the journal observed empty) the live mark. Writes racing the replay
// serialize on journalMu: they either journal while the node is still down —
// the drain loop picks them up — or run after the node is live and deliver
// directly.
func (c *Coordinator) readmit(ctx context.Context, n *node) error {
	link := c.dialNode(n.addr)
	if err := link.Warm(ctx); err != nil {
		return err
	}
	n.link.Swap(link).Close()
	ok := false
	defer func() {
		if !ok {
			link.Close()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: re-sync aborted: %w", err)
		}
		c.journalMu.Lock()
		j := c.journals[n.id]
		if len(j) == 0 {
			n.down.Store(false)
			c.journalMu.Unlock()
			ok = true
			return nil
		}
		settled := 0
		for settled < len(j) && !j[settled].pending {
			settled++
		}
		if settled == 0 {
			// An insert in flight holds the journal head; its wave ends
			// within a node round trip.
			c.journalSettled.Wait()
			c.journalMu.Unlock()
			continue
		}
		batch := j[:settled:settled]
		c.journals[n.id] = j[settled:]
		c.journalMu.Unlock()
		ops := make([]wire.ResyncOp, 0, len(batch))
		for _, op := range batch {
			if len(op.op.Entries) > 0 {
				ops = append(ops, op.op)
			}
		}
		if len(ops) == 0 {
			continue
		}
		respType, _, err := n.roundTrip(ctx, wire.MsgResyncOps, wire.ResyncReq{Ops: ops}.Encode(), c.opts.NodeTimeout, new(wire.Buffer))
		if err == nil && respType != wire.MsgAck {
			err = fmt.Errorf("cluster: node %s: unexpected re-sync response %v", n.addr, respType)
		}
		if err != nil {
			// Not applied (or not provably applied): put the batch back at
			// the journal head so the next probe replays it in order.
			c.journalMu.Lock()
			c.journals[n.id] = append(batch, c.journals[n.id]...)
			c.journalMu.Unlock()
			return err
		}
	}
}

// probeLoop periodically retries down nodes until the coordinator closes.
func (c *Coordinator) probeLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.ProbeDownNodes(c.ctx)
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"simcloud/internal/cluster"
	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/gateway"
	"simcloud/internal/server"
	"simcloud/internal/wal"
)

const apiKey = "bench-key"

// A node is one server of the deployment with what it owns: its engine, its
// write-ahead log and its directories. Every node logs with SyncGroup, so
// every workload pays for durability on its write path and can be recovered.
type node struct {
	dir string // holds buckets/ (disk storage) and wal/
	eng *engine.ShardedIndex
	log *wal.Log
	srv *server.Server
}

// A deployment is the whole system of one workload inside this process, over
// loopback TCP/HTTP: servers, then a coordinator when there are several, then
// the authorised client, then the gateway when the workload has one.
type deployment struct {
	spec  *spec
	in    *inputs
	dir   string
	nodes []*node

	coord  *cluster.Coordinator
	client *core.EncryptedClient // dials front()
	gw     *gateway.Gateway
	gwSrv  *http.Server
	gwURL  string
}

func quiet(string, ...any) {}

// openNode starts one server over dir. The engine is always fresh; whatever
// the log in dir holds is replayed into it first, so the same call serves a
// first start (empty log) and a recovery.
func openNode(s *spec, dir string) (*node, error) {
	eng, err := engine.New(s.nodeConfig(filepath.Join(dir, "buckets")))
	if err != nil {
		return nil, err
	}
	log, recs, err := wal.Open(filepath.Join(dir, "wal"), wal.SyncGroup)
	if err != nil {
		eng.Close()
		return nil, err
	}
	n := &node{dir: dir, eng: eng, log: log}
	if err := wal.Replay(recs, eng); err != nil {
		n.close()
		return nil, err
	}
	n.srv = server.NewEncryptedWithEngine(eng)
	n.srv.Logf = quiet
	n.srv.AttachWAL(log)
	if err := n.srv.Start("127.0.0.1:0"); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close stops the server and releases engine and log, in the order
// cmd/simserver uses. No snapshot is saved: only the log survives.
func (n *node) close() error {
	var err error
	if n.srv != nil {
		err = n.srv.Close() // closes the engine too
	} else if n.eng != nil {
		err = n.eng.Close()
	}
	return errors.Join(err, n.log.Close())
}

func (d *deployment) clientOptions() core.Options {
	return core.Options{MaxLevel: maxLevel, StoreDists: d.spec.storeDists}
}

// start brings up fresh, empty nodes under dir and connects the front.
func start(s *spec, in *inputs, dir string) (*deployment, error) {
	d := &deployment{spec: s, in: in, dir: dir}
	for i := range s.nodes {
		n, err := openNode(s, d.nodeDir(i))
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	if err := d.connect(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) nodeDir(i int) string { return filepath.Join(d.dir, fmt.Sprintf("node-%d", i)) }

// front is the address clients dial: the coordinator's, or the only server's.
func (d *deployment) front() string {
	if d.coord != nil {
		return d.coord.Addr()
	}
	return d.nodes[0].srv.Addr()
}

// connect puts coordinator, client and gateway in front of the running nodes.
func (d *deployment) connect() error {
	if len(d.nodes) > 1 {
		addrs := make([]string, len(d.nodes))
		for i, n := range d.nodes {
			addrs[i] = n.srv.Addr()
		}
		coord, err := cluster.New(addrs, cluster.Options{Replicas: d.spec.replicas, Logf: quiet})
		if err != nil {
			return err
		}
		d.coord = coord
		if err := coord.Start("127.0.0.1:0"); err != nil {
			return err
		}
	}
	client, err := core.DialEncrypted(d.front(), d.in.key, d.clientOptions())
	if err != nil {
		return err
	}
	d.client = client
	if !d.spec.gateway {
		return nil
	}
	// The tenant gets a client of its own, as simgate -upstream gives it.
	backend, err := core.DialEncrypted(d.front(), d.in.key, d.clientOptions())
	if err != nil {
		return err
	}
	d.gw, err = gateway.New(gateway.Config{Tenants: []gateway.Tenant{{Name: "bench", Key: apiKey, Backend: backend}}})
	if err != nil {
		backend.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.gwSrv = &http.Server{Handler: d.gw}
	d.gwURL = "http://" + ln.Addr().String()
	go d.gwSrv.Serve(ln) // returns when disconnect shuts the server down
	return nil
}

// disconnect takes down everything in front of the nodes.
func (d *deployment) disconnect() error {
	var errs []error
	if d.gwSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, d.gwSrv.Shutdown(ctx))
		cancel()
		d.gwSrv = nil
	}
	if d.gw != nil {
		errs = append(errs, d.gw.Close()) // closes the tenant's client
		d.gw = nil
	}
	if d.client != nil {
		errs = append(errs, d.client.Close())
		d.client = nil
	}
	if d.coord != nil {
		errs = append(errs, d.coord.Close())
		d.coord = nil
	}
	return errors.Join(errs...)
}

func (d *deployment) close() error {
	err := d.disconnect()
	for _, n := range d.nodes {
		err = errors.Join(err, n.close())
	}
	d.nodes = nil
	return err
}

// live returns each node's live entry count.
func (d *deployment) live() []int {
	out := make([]int, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.eng.Stats().Total.Entries
	}
	return out
}

// crashAndRecover drops every node without a snapshot, takes its bucket
// files away, and rebuilds the nodes one after another from their logs alone,
// each until it answers a query. It returns the time the rebuilding took and
// checks that every node came back with the entries it had.
func (d *deployment) crashAndRecover(probe core.Query) (time.Duration, error) {
	before := d.live()
	if err := d.disconnect(); err != nil {
		return 0, err
	}
	dirs := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		dirs[i] = n.dir
		if err := n.close(); err != nil {
			return 0, err
		}
		// Renamed, not deleted: the file system is mounted with discard, and
		// deleting a node's bucket files just before timing its recovery
		// would time the trim. The run's directory is removed when it ends.
		if err := os.Rename(filepath.Join(n.dir, "buckets"), filepath.Join(n.dir, "buckets.lost")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
	}
	d.nodes = d.nodes[:0]
	begin := time.Now()
	for _, dir := range dirs {
		n, err := openNode(d.spec, dir)
		if err != nil {
			return 0, err
		}
		d.nodes = append(d.nodes, n)
		c, err := core.DialEncrypted(n.srv.Addr(), d.in.key, d.clientOptions())
		if err != nil {
			return 0, err
		}
		_, _, err = c.Search(context.Background(), probe)
		c.Close()
		if err != nil {
			return 0, fmt.Errorf("recovered node does not answer: %w", err)
		}
	}
	took := time.Since(begin)
	for i, n := range d.live() {
		if n != before[i] {
			return 0, fmt.Errorf("node %d recovered %d entries, had %d", i, n, before[i])
		}
	}
	return took, d.connect()
}

// memoryBytes is the encoded bytes the engines report for memory storage: the
// bucket store's footprint, which no file shows. 0 for disk storage.
func (d *deployment) memoryBytes() int64 {
	var total int64
	if !d.spec.disk {
		for _, n := range d.nodes {
			total += int64(n.eng.Stats().Ingest.Bytes)
		}
	}
	return total
}

// fileBytes is what the deployment keeps on disk for its entries: bucket
// files and logs. Call it after close: a disk bucket's appends sit in its
// handle's buffer until the bucket is next read or the store is closed, so
// sizes taken from a running node depend on which buckets were read last.
func (d *deployment) fileBytes() (int64, error) {
	var total int64
	for i := range d.spec.nodes {
		for _, sub := range []string{"buckets", "wal"} { // not buckets.lost, which the crash left behind
			err := filepath.WalkDir(filepath.Join(d.nodeDir(i), sub), func(_ string, e fs.DirEntry, err error) error {
				if err != nil || e.IsDir() {
					return err
				}
				info, err := e.Info()
				if err != nil {
					return err
				}
				total += info.Size()
				return nil
			})
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				return 0, err
			}
		}
	}
	return total, nil
}

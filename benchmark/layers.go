package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/merge"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/wal"
	"simcloud/internal/wire"
)

// An engineCall is one request a query makes of the index engine.
type engineCall struct {
	approx   bool
	ranks    []int32 // approximate: the query permutation's ranks
	candSize int
	dists    []float64 // range: the query-pivot distances
	radius   float64
}

// engineCalls works out, untimed, what the authorised client asks the server
// for when it evaluates q: one candidate request for a range or approximate
// query, two for an exact k-NN, whose range radius is the k-th distance among
// the refined candidates of its approximate phase (core.searchKNN).
func (r *runner) engineCalls(eng *engine.ShardedIndex, q core.Query) ([]engineCall, error) {
	key := r.in.key
	dists := key.Pivots().Distances(q.Vec)
	ranks := pivot.Ranks(pivot.Permutation(dists))
	rangeCall := func(radius float64) engineCall {
		return engineCall{dists: key.TransformDists(dists), radius: key.TransformRadius(radius)}
	}
	switch q.Kind {
	case core.KindRange:
		return []engineCall{rangeCall(q.Radius)}, nil
	case core.KindApproxKNN:
		return []engineCall{{approx: true, ranks: ranks, candSize: q.CandSize}}, nil
	}
	first := engineCall{approx: true, ranks: ranks, candSize: core.DefaultCandSize(q.K)}
	cands, err := eng.ApproxCandidates(mindex.ApproxQuery{Ranks: ranks}, first.candSize)
	if err != nil {
		return nil, err
	}
	found := make([]float64, 0, len(cands))
	for _, e := range cands {
		o, err := key.DecryptObject(e.Payload)
		if err != nil {
			return nil, err
		}
		found = append(found, r.in.dist.Dist(q.Vec, o.Vec))
	}
	slices.Sort(found)
	radius := 1e300 // core's "everything" radius when the first phase found fewer than k
	if len(found) >= q.K {
		radius = found[q.K-1]
	}
	return []engineCall{first, rangeCall(radius)}, nil
}

// peeled is what the in-process depths of one query measured.
type peeled struct {
	engine   time.Duration // the engine calls
	shard    time.Duration // per call, the slowest shard's mindex call
	encode   time.Duration // wire.CandidatesResp.AppendTo of what the engine returned
	decode   time.Duration // wire.DecodeCandidatesResp of the same bytes
	returned int           // candidates the engine returned
}

func peelEngine(eng *engine.ShardedIndex, calls []engineCall) (peeled, error) {
	var p peeled
	for _, c := range calls {
		q := mindex.ApproxQuery{Ranks: c.ranks}
		begin := time.Now()
		var cands []mindex.Entry
		var err error
		if c.approx {
			cands, err = eng.ApproxCandidates(q, c.candSize)
		} else {
			cands, err = eng.RangeByDists(c.dists, c.radius)
		}
		p.engine += time.Since(begin)
		if err != nil {
			return p, err
		}
		p.returned += len(cands)
		var slowest time.Duration
		for i := range eng.NumShards() {
			begin := time.Now()
			if c.approx {
				_, err = eng.Shard(i).ApproxCandidatesRanked(q, c.candSize)
			} else {
				_, err = eng.Shard(i).RangeByDists(c.dists, c.radius)
			}
			slowest = max(slowest, time.Since(begin))
			if err != nil {
				return p, err
			}
		}
		p.shard += slowest
		buf := wire.GetBuffer()
		begin = time.Now()
		wire.CandidatesResp{Entries: cands}.AppendTo(buf)
		p.encode += time.Since(begin)
		begin = time.Now()
		_, err = wire.DecodeCandidatesResp(buf.B)
		p.decode += time.Since(begin)
		wire.PutBuffer(buf)
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// mergeCost times merge.Ranked on the candidate lists the nodes hold for the
// query (unfiltered per-node lists: the same lengths as the owner-filtered
// lists the coordinator merges once every node has candSize candidates).
func (r *runner) mergeCost(q core.Query) (time.Duration, error) {
	if q.Kind != core.KindApproxKNN {
		return 0, nil
	}
	ranks := pivot.Ranks(pivot.Permutation(r.in.key.Pivots().Distances(q.Vec)))
	per := make([][]mindex.RankedCandidate, len(r.dep.nodes))
	for i, n := range r.dep.nodes {
		var err error
		if per[i], err = n.eng.ApproxCandidatesRanked(mindex.ApproxQuery{Ranks: ranks}, q.CandSize); err != nil {
			return 0, err
		}
	}
	begin := time.Now()
	merge.Entries(merge.Ranked(per), q.CandSize)
	return time.Since(begin), nil
}

// counters accumulates per-query figures over the traced operations.
type counters struct {
	n                                       float64
	candidates, kept                        float64
	sent, recv, trips                       float64
	comm, server, decrypt, refine, returned float64
}

// tracedReads replays the first reads of the stream serially, once per depth, and
// lays their spans out in tr.
func (r *runner) tracedReads(tr *trace, ref *deployment) (counters, samples, error) {
	var c counters
	var top samples
	ctx := context.Background()
	inner := r.dep
	if ref != nil {
		inner = ref
	}
	pv := r.in.key.Pivots()
	for i := range r.spec.tracedReads {
		qi := r.in.order[i%len(r.ops)]
		q := r.ops[qi].q

		// The in-process depths and the networked ones warm the same bucket
		// cache, so whichever runs second finds it warmer: alternate.
		var p peeled
		var calls []engineCall
		peel := func() (err error) {
			if calls, err = r.engineCalls(inner.nodes[0].eng, q); err == nil {
				p, err = peelEngine(inner.nodes[0].eng, calls)
			}
			return err
		}
		if i%2 == 1 {
			if err := peel(); err != nil {
				return c, nil, err
			}
		}
		var viaGateway time.Duration
		if r.spec.gateway {
			begin := time.Now()
			if _, err := r.search(0, qi); err != nil {
				return c, nil, err
			}
			viaGateway = time.Since(begin)
		}
		res, c1, err := r.dep.client.Search(ctx, q)
		if err != nil {
			return c, nil, err
		}
		c2 := c1
		if ref != nil {
			if _, c2, err = ref.client.Search(ctx, q); err != nil {
				return c, nil, err
			}
		}
		if i%2 == 0 {
			if err := peel(); err != nil {
				return c, nil, err
			}
		}
		begin := time.Now()
		pivot.Permutation(pv.Distances(q.Vec))
		transform := time.Since(begin) * time.Duration(len(calls)) // an exact k-NN transforms once per phase

		// Lay the spans out.
		search := -1
		if r.spec.gateway {
			root := tr.root(i, "gateway.http", viaGateway)
			search = tr.child(root, "core.search", max(viaGateway-c1.Overall, 0)/2, c1.Overall)
			top = append(top, viaGateway)
		} else {
			search = tr.root(i, "core.search", c1.Overall)
			top = append(top, c1.Overall)
		}
		tr.child(search, "core.query_transform", 0, transform)
		remote1 := c1.ServerTime + c1.CommTime
		roundTrip := -1
		if ref != nil {
			coord := tr.child(search, "cluster.coordinator", transform, remote1)
			mergeTook, err := r.mergeCost(q)
			if err != nil {
				return c, nil, err
			}
			tr.child(coord, "cluster.merge", 0, mergeTook)
			roundTrip = tr.child(coord, "wire.roundtrip", mergeTook, c2.ServerTime+c2.CommTime)
		} else {
			roundTrip = tr.child(search, "wire.roundtrip", transform, remote1)
		}
		// The client decodes the response after the timed exchange, so that
		// is client time; the server encodes it after it has taken its own
		// time, so that is inside the round trip.
		tr.child(search, "wire.decode_resp", transform+remote1, p.decode)
		tr.child(search, "core.decrypt", transform+remote1+p.decode, c1.DecryptTime)
		refine := max(c1.DistCompTime-transform, 0)
		tr.child(search, "core.refine_dist", transform+remote1+p.decode+c1.DecryptTime, refine)
		lead := max(c2.CommTime-p.encode, 0) / 2
		handle := tr.child(roundTrip, "server.handle", lead, c2.ServerTime)
		tr.child(roundTrip, "wire.encode_resp", lead+c2.ServerTime, p.encode)
		call := tr.child(handle, "engine.call", max(c2.ServerTime-p.engine, 0)/2, p.engine)
		tr.child(call, "mindex.walk", max(p.engine-p.shard, 0)/2, p.shard)

		c.n++
		c.candidates += float64(c1.Candidates)
		c.kept += float64(len(res))
		c.sent += float64(c1.BytesSent)
		c.recv += float64(c1.BytesReceived)
		c.trips += float64(c1.RoundTrips)
		c.comm += us(c1.CommTime)
		c.server += us(c2.ServerTime)
		c.decrypt += us(c1.DecryptTime)
		c.refine += us(refine)
		c.returned += float64(p.returned)
	}
	return c, top, nil
}

// ingestFigures is what the traced ingest chunks measured.
type ingestFigures struct {
	pivotDistUS, encryptUS  float64 // per entry
	ackUS, fanoutSelfUS     float64 // per chunk
	insertBulkUS            float64 // per entry
	walAppendUS, walFlushUS float64
	walBytesPerEntry        float64
	replayEPS               float64
}

// chunkAck streams one prepared chunk on conn and waits for its ack.
func chunkAck(conn net.Conn, seq int, entries []mindex.Entry) (time.Duration, error) {
	payload := wire.IngestChunkReq{Seq: uint32(seq), Entries: entries}.Encode()
	begin := time.Now()
	if err := wire.WriteFrame(conn, wire.MsgIngestChunk, payload); err != nil {
		return 0, err
	}
	typ, resp, err := wire.ReadFrame(conn)
	took := time.Since(begin)
	if err != nil {
		return 0, err
	}
	if typ != wire.MsgIngestChunkAck {
		return 0, fmt.Errorf("ingest chunk %d answered %v: %s", seq, typ, resp)
	}
	return took, nil
}

func endStream(conn net.Conn) error {
	if err := wire.WriteFrame(conn, wire.MsgIngestEnd, wire.IngestEndReq{}.Encode()); err != nil {
		return err
	}
	typ, resp, err := wire.ReadFrame(conn)
	if err == nil && typ != wire.MsgAck {
		err = fmt.Errorf("ingest end answered %v: %s", typ, resp)
	}
	return err
}

// tracedIngest streams chunks of never-indexed objects, one at a
// time, preparing each with the client's own public steps (pivot distances,
// permutation prefix, encryption) so that every step is timed on the
// workload's real inputs. The chunk goes to the deployment's front and, for a
// cluster, also to the reference server; the difference is the coordinator's
// stream fan-out. The same entries then go through Index.InsertBulk and the
// WAL in a scratch directory.
func (r *runner) tracedIngest(tr *trace, ref *deployment) (ingestFigures, error) {
	var f ingestFigures
	front, err := net.Dial("tcp", r.dep.front())
	if err != nil {
		return f, err
	}
	defer front.Close()
	var direct net.Conn
	if ref != nil {
		if direct, err = net.Dial("tcp", ref.front()); err != nil {
			return f, err
		}
		defer direct.Close()
	}
	scratch := filepath.Join(r.dir, "scratch")
	eng, err := engine.New(r.spec.nodeConfig(filepath.Join(scratch, "buckets")))
	if err != nil {
		return f, err
	}
	defer eng.Close()
	log, _, err := wal.Open(filepath.Join(scratch, "wal"), wal.SyncGroup)
	if err != nil {
		return f, err
	}
	defer log.Close()

	key, pv := r.in.key, r.in.key.Pivots()
	at := int(r.inserted.Load())
	if at+r.spec.tracedChunks*streamChunk > len(r.in.extra) {
		return f, fmt.Errorf("out of objects to ingest")
	}
	dists := make([]float64, pv.N())
	for seq := range r.spec.tracedChunks {
		objs := r.in.extra[at+seq*streamChunk : at+(seq+1)*streamChunk]
		entries := make([]mindex.Entry, len(objs))
		var distTook, encTook time.Duration
		for i, o := range objs {
			begin := time.Now()
			dists = pv.DistancesInto(dists, o.Vec)
			distTook += time.Since(begin)
			begin = time.Now()
			payload, err := key.EncryptObject(o)
			encTook += time.Since(begin)
			if err != nil {
				return f, err
			}
			entries[i] = mindex.Entry{ID: o.ID, Perm: pivot.Prefix(pivot.Permutation(dists), maxLevel), Payload: payload}
			if r.spec.storeDists {
				entries[i].Dists = key.TransformDists(slices.Clone(dists))
			}
		}
		ack, err := chunkAck(front, seq, entries)
		if err != nil {
			return f, err
		}
		inner := ack
		if direct != nil {
			if inner, err = chunkAck(direct, seq, entries); err != nil {
				return f, err
			}
		}
		begin := time.Now()
		if err := eng.InsertBulk(entries); err != nil {
			return f, err
		}
		bulk := time.Since(begin)
		begin = time.Now()
		if err := log.Append(wal.Record{Op: wal.OpInsert, Entries: entries}); err != nil {
			return f, err
		}
		appendTook := time.Since(begin)

		root := tr.root(r.spec.tracedReads+seq, "ingest.chunk", distTook+encTook+ack)
		tr.child(root, "core.pivot_dist", 0, distTook)
		tr.child(root, "core.encrypt", distTook, encTook)
		stream := -1
		if direct != nil {
			fan := tr.child(root, "cluster.stream_fanout", distTook+encTook, ack)
			stream = tr.child(fan, "wire.stream_chunk", max(ack-inner, 0)/2, inner)
		} else {
			stream = tr.child(root, "wire.stream_chunk", distTook+encTook, ack)
		}
		lead := max(inner-bulk-appendTook, 0) / 2
		tr.child(stream, "mindex.insert_bulk", lead, bulk)
		tr.child(stream, "wal.append", lead+bulk, appendTook)

		n := float64(len(objs))
		f.pivotDistUS += us(distTook) / n
		f.encryptUS += us(encTook) / n
		f.ackUS += us(inner)
		f.fanoutSelfUS += us(max(ack-inner, 0))
		f.insertBulkUS += us(bulk) / n
		f.walAppendUS += us(appendTook)
	}
	r.inserted.Add(uint64(r.spec.tracedChunks * streamChunk))
	if err := endStream(front); err != nil {
		return f, err
	}
	if direct != nil {
		if err := endStream(direct); err != nil {
			return f, err
		}
	}
	for _, v := range []*float64{&f.pivotDistUS, &f.encryptUS, &f.ackUS, &f.fanoutSelfUS, &f.insertBulkUS, &f.walAppendUS} {
		*v /= float64(r.spec.tracedChunks)
	}
	begin := time.Now()
	if err := log.Flush(); err != nil {
		return f, err
	}
	f.walFlushUS = us(time.Since(begin))
	entries := float64(r.spec.tracedChunks * streamChunk)
	f.walBytesPerEntry = float64(log.Size()) / entries
	if err := log.Close(); err != nil {
		return f, err
	}
	fresh, err := engine.New(r.spec.nodeConfig(filepath.Join(scratch, "replayed")))
	if err != nil {
		return f, err
	}
	defer fresh.Close()
	begin = time.Now()
	reopened, recs, err := wal.Open(filepath.Join(scratch, "wal"), wal.SyncGroup)
	if err != nil {
		return f, err
	}
	defer reopened.Close()
	if err := wal.Replay(recs, fresh); err != nil {
		return f, err
	}
	f.replayEPS = entries / time.Since(begin).Seconds()
	return f, nil
}

// gatewayCounters reads the gateway's own counters from GET /metrics.
func (r *runner) gatewayCounters() (admitted, shed, refused float64, err error) {
	if !r.spec.gateway {
		return 0, 0, 0, nil
	}
	resp, err := http.Get(r.dep.gwURL + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		v, perr := strconv.ParseFloat(value, 64)
		if !ok || perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "simgate_queries_total"):
			admitted += v
		case strings.HasPrefix(name, "simgate_shed_total"):
			shed += v
		case strings.HasPrefix(name, "simgate_rejected_total"):
			refused += v
		}
	}
	return admitted, shed, refused, sc.Err()
}

// watchCompactions counts how often a shard's dead count falls until the
// returned function is called: the engine publishes no compaction counter,
// and a compaction is the only thing that lowers that count.
func (r *runner) watchCompactions() (stop func() int) {
	count := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[*mindex.Index]int{}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, n := range r.dep.nodes {
				for i := range n.eng.NumShards() {
					sh := n.eng.Shard(i)
					dead := sh.Dead()
					if dead < last[sh] {
						count++
					}
					last[sh] = dead
				}
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return count
	}
}

// traced is the separate run that gives the per-layer numbers: one set-up,
// the first reads of the stream and a few ingest chunks replayed serially
// at every depth, and a short pass of the load phases for the counters only
// load moves.
func (r *runner) traced(outDir string) (*result, error) {
	res := &result{Workload: r.spec.name, Traced: true}
	_, load, recovery, err := r.prepare(1)
	if err != nil {
		return nil, err
	}
	defer func() { r.closeSenders(); r.dep.close() }()
	var ref *deployment
	if r.dep.coord != nil {
		if ref, err = r.reference(); err != nil {
			return nil, err
		}
		defer ref.close()
	}

	// The same serial replay without spans, for the tracing overhead and the
	// cache counters of exactly as many queries.
	hitsBefore, missesBefore := r.cacheCounters()
	var plain samples
	for i := range r.spec.tracedReads {
		begin := time.Now()
		r.read(0, i)
		plain = append(plain, time.Since(begin))
	}
	hitsAfter, missesAfter := r.cacheCounters()

	tr := &trace{Workload: r.spec.name, Seed: r.seed}
	c, top, err := r.tracedReads(tr, ref)
	if err != nil {
		return nil, err
	}

	stopWatching := r.watchCompactions()
	win := r.phases(time.Duration(r.seconds * float64(time.Second) / 2))
	compactions := stopWatching()
	admitted, shed, refused, err := r.gatewayCounters()
	if err != nil {
		return nil, err
	}
	var live, dead, leaves, depth, shards int
	for _, n := range r.dep.nodes {
		st := n.eng.Stats()
		live += st.Total.Entries
		dead += st.Total.Dead
		leaves += st.Total.Leaves
		depth = max(depth, st.Total.MaxDepth)
		shards += n.eng.NumShards()
	}

	ing, err := r.tracedIngest(tr, ref)
	if err != nil {
		return nil, err
	}

	budgets := map[string][]budgetRow{}
	self := map[string]float64{}
	for _, rootName := range []string{"gateway.http", "core.search", "ingest.chunk"} {
		rows, opUS := tr.budget(rootName)
		if rows == nil {
			continue
		}
		budgets[rootName] = rows
		printBudget(logOut, r.spec.name, rootName, rows, opUS)
		for _, row := range rows {
			self[row.Layer] = row.SelfUS
		}
	}
	for name, ns := range tr.Clipped {
		fmt.Fprintf(logOut, "%s: %.1f%% of the traced time was %s time that did not fit its parent span\n",
			r.spec.name, 100*float64(ns)/float64(max(tr.end, 1)), name)
	}
	if path, err := tr.write(outDir, budgets); err != nil {
		return nil, err
	} else {
		fmt.Fprintf(logOut, "%s: %d spans written to %s\n", r.spec.name, len(tr.Spans), path)
	}

	perQuery := func(v float64) float64 { return v / c.n }
	res.add("gateway.http_self_us", self["gateway.http"], "us", "")
	res.add("gateway.resp_json_bytes", ratio(float64(r.respBytes.Load()), float64(r.respCount.Load())), "B", "")
	res.add("gateway.admitted", admitted, "count", "")
	res.add("gateway.shed", shed, "count", "")
	res.add("gateway.refused", refused, "count", "")
	res.add("core.query_transform_us", self["core.query_transform"], "us", "")
	res.add("core.decrypt_us_per_query", perQuery(c.decrypt), "us", "")
	res.add("core.refine_dist_us_per_query", perQuery(c.refine), "us", "")
	res.add("core.candidates_per_query", perQuery(c.candidates), "count", "")
	res.add("core.useful_candidate_ratio", ratio(c.kept, c.candidates), "fraction", "")
	res.add("core.pool_wait_us", r.poolWaitUS(), "us", "")
	res.add("core.encrypt_us_per_entry", ing.encryptUS, "us", "")
	res.add("core.pivot_dist_us_per_entry", ing.pivotDistUS, "us", "")
	res.add("wire.bytes_sent_per_query", perQuery(c.sent), "B", "")
	res.add("wire.bytes_recv_per_query", perQuery(c.recv), "B", "")
	res.add("wire.round_trips_per_query", perQuery(c.trips), "count", "")
	res.add("wire.comm_us_per_query", perQuery(c.comm), "us", "")
	res.add("wire.encode_resp_us", self["wire.encode_resp"], "us", "")
	res.add("wire.decode_resp_us", self["wire.decode_resp"], "us", "")
	res.add("wire.stream_chunk_ack_us", ing.ackUS, "us", "")
	res.add("cluster.coord_self_us", self["cluster.coordinator"], "us", "")
	res.add("cluster.merge_us", self["cluster.merge"], "us", "")
	res.add("cluster.nodes_per_query", float64(r.liveNodes()), "count", "")
	res.add("cluster.retries", float64(r.downNodes()), "count", "")
	res.add("cluster.stream_fanout_self_us", ing.fanoutSelfUS, "us", "")
	res.add("server.time_us_per_query", perQuery(c.server), "us", "")
	res.add("server.dispatch_self_us", self["server.handle"], "us", "")
	res.add("engine.fanout_self_us", self["engine.call"], "us", "")
	res.add("engine.shards_touched", float64(shards), "count", "")
	res.add("engine.live", float64(live), "count", "")
	res.add("engine.dead_fraction", ratio(float64(dead), float64(live+dead)), "fraction", "")
	res.add("engine.compactions", float64(compactions), "count", "")
	res.add("mindex.walk_us", self["mindex.walk"], "us", "")
	res.add("mindex.candidates_returned", perQuery(c.returned), "count", "")
	res.add("mindex.tree_leaves", float64(leaves), "count", "")
	res.add("mindex.tree_depth", float64(depth), "count", "")
	res.add("mindex.cache_hit_ratio", ratio(hitsAfter-hitsBefore, hitsAfter-hitsBefore+missesAfter-missesBefore), "fraction", "")
	res.add("mindex.cache_misses_per_query", (missesAfter-missesBefore)/float64(r.spec.tracedReads), "count", "")
	res.add("mindex.insert_bulk_us_per_entry", ing.insertBulkUS, "us", "")
	res.add("wal.append_us", ing.walAppendUS, "us", "")
	res.add("wal.flush_us", ing.walFlushUS, "us", "")
	res.add("wal.bytes_per_entry", ing.walBytesPerEntry, "B", "")
	res.add("wal.replay_eps", ing.replayEPS, "entries/s", "")
	res.add("load.ingest_eps", float64(r.spec.n)/load[0], "entries/s", "")
	res.add("load.recovery_s", recovery[0], "s", "")
	res.addLoadgen(win.open, win.writes)
	res.add("loadgen.trace_overhead_ratio", ratio(float64(top.percentile(0.5)), float64(plain.percentile(0.5))), "ratio", "")
	res.add("trace.unattributed_us", self["core.search"], "us", "")
	res.Attempted, res.Failed = int(r.attempted.Load()), int(r.failed.Load())
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cacheCounters sums the bucket-cache counters over the deployment's nodes.
func (r *runner) cacheCounters() (hits, misses float64) {
	for _, n := range r.dep.nodes {
		st := n.eng.Stats()
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
	}
	return hits, misses
}

func (r *runner) liveNodes() int {
	if r.dep.coord == nil {
		return 1
	}
	return len(r.dep.coord.LiveNodes())
}

// downNodes is how many nodes the coordinator has marked down: it retries an
// operation over the survivors exactly when it marks one, and publishes no
// retry counter.
func (r *runner) downNodes() int {
	if r.dep.coord == nil {
		return 0
	}
	return r.dep.coord.NumNodes() - len(r.dep.coord.LiveNodes())
}

// poolWaitUS estimates what a query waited for a pooled connection. The pool
// never blocks: a lease either finds an idle connection or dials one, so the
// wait is the dials beyond the first connection times what a dial and hello
// cost, spread over the queries.
func (r *runner) poolWaitUS() float64 {
	dialed := core.CollectStats(r.dep.client).Pool.Dialed
	if dialed <= 1 {
		return 0
	}
	begin := time.Now()
	c, err := core.DialEncrypted(r.dep.front(), r.in.key, r.dep.clientOptions())
	if err != nil {
		return 0
	}
	took := time.Since(begin)
	c.Close()
	return us(took) * float64(dialed-1) / float64(r.attempted.Load())
}

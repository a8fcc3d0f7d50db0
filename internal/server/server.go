// Package server implements the similarity-cloud server: a TCP service
// hosting an M-Index and answering the wire protocol. Two deployment modes
// mirror the paper's evaluation:
//
//   - Encrypted: the server holds only encrypted payloads with their pivot
//     permutations / distance vectors. It can prune, rank and filter — but
//     it cannot compute the metric distance function (it has no pivots and
//     no plaintext), so it returns candidate sets for client refinement.
//   - Plain: the server holds the pivots and the objects' plaintext and
//     evaluates queries completely, returning final answers (the
//     non-encrypted baseline of Tables 4, 7 and 8). It runs the encrypted
//     pipeline itself — an authorized client's insert, search and refinement
//     over the same engine, with a raw codec for the cipher — supplied as a
//     PlainBackend (core.PlainBackend).
//
// Beside the index, either mode keeps a keyed blob store of ciphertexts: the
// encrypted raw data of the paper's Figure 1, and the encrypted indexes of
// the compared techniques (EHI nodes, FDH buckets), so every technique of
// Table 9 runs over one network substrate. The trivial baseline needs no
// store of its own: its download is a BatchAll query.
package server

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"sync"
	"time"

	"simcloud/internal/engine"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/stats"
	"simcloud/internal/wal"
	"simcloud/internal/wire"
)

// Mode selects the deployment mode.
type Mode uint8

// Deployment modes.
const (
	ModeEncrypted Mode = iota + 1
	ModePlain
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeEncrypted:
		return "encrypted"
	case ModePlain:
		return "plain"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// blobKey files a blob list under its space and key.
type blobKey struct {
	space uint8
	key   uint64
}

// PlainBackend is the index the plain deployment's server drives: it owns
// the pivots, indexes raw objects into Engine and answers plain queries to
// the end, reporting the distance time in its costs. The server takes
// ownership of Engine. core.NewPlainBackend builds one.
type PlainBackend interface {
	Engine() *engine.ShardedIndex
	Insert(objs []metric.Object) (stats.Costs, error)
	Query(req wire.PlainQueryReq) ([]wire.Result, stats.Costs, error)
}

// Server is a similarity-cloud server instance.
type Server struct {
	mode  Mode
	eng   *engine.ShardedIndex
	plain PlainBackend // nil in encrypted mode
	wal   *wal.Log     // optional mutation log; see AttachWAL

	mu    sync.Mutex
	blobs map[blobKey][][]byte // guarded by mu

	front    wire.Server // serves the protocol with handle
	closeEng sync.Once   // Close releases the engine once

	// Logf receives connection-level failures; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// NewEncrypted creates a server hosting an encrypted-deployment M-Index
// engine: cfg.Shards > 1 partitions the index across independently locked
// shards served by a fan-out worker pool (see internal/engine).
func NewEncrypted(cfg mindex.Config) (*Server, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return NewEncryptedWithEngine(eng), nil
}

// NewEncryptedWithEngine creates an encrypted-deployment server around an
// existing sharded engine.
func NewEncryptedWithEngine(eng *engine.ShardedIndex) *Server {
	s := &Server{
		mode:  ModeEncrypted,
		eng:   eng,
		blobs: make(map[blobKey][][]byte),
		Logf:  log.Printf,
	}
	s.front = wire.Server{
		Handler: s.handle,
		Logf:    func(format string, args ...any) { s.Logf(format, args...) },
	}
	return s
}

// NewPlain creates a plain-deployment server around b: it owns the pivot
// set and computes all distances itself, and its responses report the
// distance-computation time b measured.
func NewPlain(b PlainBackend) *Server {
	s := NewEncryptedWithEngine(b.Engine())
	s.mode, s.plain = ModePlain, b
	return s
}

// AttachWAL attaches a write-ahead log to an encrypted-deployment server:
// every acknowledged entry-store mutation (insert, delete, applied re-sync
// operation) is appended to l after the engine accepts it and before the
// acknowledgment is sent. Attach before Start; the caller keeps ownership of
// l and closes it after the server shuts down. Typically the log was just
// Opened and its recovered records Replayed into the engine this server
// wraps.
func (s *Server) AttachWAL(l *wal.Log) { s.wal = l }

// walAppend logs one applied mutation; a no-op without an attached log or
// with nothing applied.
func (s *Server) walAppend(op wal.Op, entries []mindex.Entry) error {
	if s.wal == nil || len(entries) == 0 {
		return nil
	}
	return s.wal.Append(wal.Record{Op: op, Entries: entries})
}

// Mode returns the deployment mode.
func (s *Server) Mode() Mode { return s.mode }

// Index exposes the underlying index engine, of either deployment, for
// white-box inspection by tools and tests.
func (s *Server) Index() *engine.ShardedIndex { return s.eng }

// Start begins listening on addr (use "127.0.0.1:0" for an ephemeral
// loopback port, the paper's measurement setup).
func (s *Server) Start(addr string) error { return s.front.Start(addr) }

// Addr returns the listening address (valid after Start).
func (s *Server) Addr() string { return s.front.Addr() }

// Stop stops serving, after the drain wire.Server.Close describes, and
// leaves the engine open: a snapshot saved after it holds exactly the
// acknowledged writes.
func (s *Server) Stop() error { return s.front.Close() }

// Close stops serving, as Stop does, and releases the engine, once. It is
// safe against Start, Stop and requests in flight.
func (s *Server) Close() error {
	err := s.front.Close()
	s.closeEng.Do(func() {
		if cerr := s.eng.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

var errNeedEncrypted = errors.New("server: request requires the encrypted deployment")
var errNeedPlain = errors.New("server: request requires the plain deployment")

// handle answers one request: the server's wire.Handler. Server time is
// measured from start, when the request finished arriving, so framing and
// socket IO count as communication time, matching the paper's
// decomposition. Candidate and count replies are encoded into buf.
func (s *Server) handle(typ wire.MsgType, payload []byte, start time.Time, buf *wire.Buffer) (wire.MsgType, []byte, error) {
	switch typ {
	case wire.MsgHello:
		if _, err := wire.DecodeHelloReq(payload); err != nil {
			return 0, nil, err
		}
		return wire.MsgHelloAck, s.helloResp().Encode(), nil

	case wire.MsgDeleteEntries:
		if s.plain != nil {
			return 0, nil, errNeedEncrypted
		}
		req, err := wire.DecodeDeleteEntriesReq(payload)
		if err != nil {
			return 0, nil, err
		}
		// The engine validates each reference's routing prefix; hostile
		// permutation elements become an error response, never a panic or a
		// misrouted tombstone.
		deleted, err := s.eng.Delete(req.Refs)
		if err != nil {
			return 0, nil, err
		}
		// Log the full reference set: replaying a delete of an absent ID is
		// a no-op in the engine, so over-logging is harmless and keeps the
		// record identical to the acknowledged request.
		if err := s.walAppend(wal.OpDelete, req.Refs); err != nil {
			return 0, nil, err
		}
		return wire.MsgDeleteAck, wire.DeleteAckResp{
			ServerNanos: uint64(time.Since(start)), Deleted: uint32(deleted),
		}.Encode(), nil

	case wire.MsgBatchQuery:
		if s.plain != nil {
			return 0, nil, errNeedEncrypted
		}
		req, err := wire.DecodeBatchQueryReq(payload)
		if err != nil {
			return 0, nil, err
		}
		numPivots := s.eng.Config().NumPivots
		filter, err := mindex.NewPivotFilter(numPivots, req.Allow)
		if err != nil {
			return 0, nil, err
		}
		if req.Counts {
			return s.cellCounts(req.Queries, filter, start, buf)
		}
		results := make([][]mindex.RankedCandidate, len(req.Queries))
		for i, q := range req.Queries {
			iq, err := q.IndexQuery(numPivots, filter)
			if err == nil {
				results[i], err = s.eng.Search(iq)
			}
			if err != nil {
				return 0, nil, fmt.Errorf("server: batch query %d: %w", i, err)
			}
		}
		buf.Reset()
		resp := wire.BatchRankedResp{ServerNanos: uint64(time.Since(start)), Results: results}
		if req.Ranked {
			resp.AppendTo(buf)
			return wire.MsgBatchRankedCandidates, buf.B, nil
		}
		resp.AppendFlatTo(buf, req.Queries)
		return wire.MsgBatchCandidates, buf.B, nil

	case wire.MsgPlainQuery:
		if s.plain == nil {
			return 0, nil, errNeedPlain
		}
		req, err := wire.DecodePlainQueryReq(payload)
		if err != nil {
			return 0, nil, err
		}
		res, costs, err := s.plain.Query(req)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgResults, wire.ResultsResp{
			ServerNanos: uint64(time.Since(start)),
			DistNanos:   uint64(costs.DistCompTime),
			Results:     res,
		}.Encode(), nil

	case wire.MsgDeleteObjects:
		if s.plain == nil {
			return 0, nil, errNeedPlain
		}
		req, err := wire.DecodeDeleteObjectsReq(payload)
		if err != nil {
			return 0, nil, err
		}
		deleted, err := s.eng.DeleteIDs(req.IDs)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgDeleteAck, wire.DeleteAckResp{
			ServerNanos: uint64(time.Since(start)), Deleted: uint32(deleted),
		}.Encode(), nil

	case wire.MsgPutBlobs:
		req, err := wire.DecodePutBlobsReq(payload)
		if err != nil {
			return 0, nil, err
		}
		s.putBlobs(req)
		return wire.MsgAck, wire.AckResp{ServerNanos: uint64(time.Since(start))}.Encode(), nil

	case wire.MsgGetBlobs:
		req, err := wire.DecodeGetBlobsReq(payload)
		if err != nil {
			return 0, nil, err
		}
		lists := make([][][]byte, len(req.Keys))
		s.mu.Lock()
		for i, key := range req.Keys {
			lists[i] = s.blobs[blobKey{req.Space, key}]
		}
		s.mu.Unlock()
		return wire.MsgBlobs, wire.BlobsResp{ServerNanos: uint64(time.Since(start)), Lists: lists}.Encode(), nil

	case wire.MsgResyncOps:
		if s.plain != nil {
			return 0, nil, errNeedEncrypted
		}
		req, err := wire.DecodeResyncReq(payload)
		if err != nil {
			return 0, nil, err
		}
		for i, op := range req.Ops {
			if err := s.applyResyncOp(op); err != nil {
				return 0, nil, fmt.Errorf("server: resync op %d: %w", i, err)
			}
		}
		return wire.MsgAck, wire.AckResp{ServerNanos: uint64(time.Since(start))}.Encode(), nil

	case wire.MsgIngestChunk:
		if s.plain != nil {
			return 0, nil, errNeedEncrypted
		}
		req, err := wire.DecodeIngestChunkReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.eng.InsertBulk(req.Entries); err != nil {
			return 0, nil, err
		}
		if err := s.walAppend(wal.OpInsert, req.Entries); err != nil {
			return 0, nil, err
		}
		return wire.MsgIngestChunkAck, wire.IngestChunkAckResp{
			Seq: req.Seq, ServerNanos: uint64(time.Since(start)),
		}.Encode(), nil

	case wire.MsgIngestObjChunk:
		if s.plain == nil {
			return 0, nil, errNeedPlain
		}
		req, err := wire.DecodeIngestObjChunkReq(payload)
		if err != nil {
			return 0, nil, err
		}
		costs, err := s.plain.Insert(req.Objects)
		if err != nil {
			return 0, nil, err
		}
		return wire.MsgIngestChunkAck, wire.IngestChunkAckResp{
			Seq: req.Seq, ServerNanos: uint64(time.Since(start)), DistNanos: uint64(costs.DistCompTime),
		}.Encode(), nil

	case wire.MsgIngestEnd:
		if _, err := wire.DecodeIngestEndReq(payload); err != nil {
			return 0, nil, err
		}
		// The end-of-stream ack promises durability for every streamed
		// chunk: under WAL policy "group" the appends accumulated in the
		// current commit window, which this flush closes. Without a WAL
		// (or in plain mode) there is nothing to flush.
		if s.wal != nil {
			if err := s.wal.Flush(); err != nil {
				return 0, nil, err
			}
		}
		return wire.MsgAck, wire.AckResp{ServerNanos: uint64(time.Since(start))}.Encode(), nil
	}
	if err := wire.RetiredError(typ); err != nil {
		return 0, nil, err
	}
	return 0, nil, fmt.Errorf("server: unsupported request type %v", typ)
}

// cellCounts answers a batch query asking for counts: per query, the cell
// runs of the candidate stream a ranked request would return
// (engine.CellCounts), encoded into buf. Only approximate queries trim to a
// candidate size, so only they have counts to ask for.
func (s *Server) cellCounts(queries []wire.BatchQuery, filter mindex.PivotFilter, start time.Time, buf *wire.Buffer) (wire.MsgType, []byte, error) {
	numPivots := s.eng.Config().NumPivots
	results := make([][]mindex.CellRun, len(queries))
	for i, q := range queries {
		iq, err := q.IndexQuery(numPivots, filter)
		if err == nil {
			results[i], err = s.eng.CellCounts(iq)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("server: batch query %d: %w", i, err)
		}
	}
	buf.Reset()
	wire.BatchCellCountsResp{ServerNanos: uint64(time.Since(start)), Results: results}.AppendTo(buf)
	return wire.MsgBatchCellCounts, buf.B, nil
}

// putBlobs replaces the blob list of every key req lists with req's blobs
// for that key, in request order.
func (s *Server) putBlobs(req wire.PutBlobsReq) {
	lists := make(map[blobKey][][]byte)
	for _, b := range req.Items {
		k := blobKey{req.Space, b.Key}
		lists[k] = append(lists[k], b.Data)
	}
	s.mu.Lock()
	maps.Copy(s.blobs, lists)
	s.mu.Unlock()
}

// applyResyncOp applies one missed write from the coordinator's re-admission
// journal. Inserts are applied entry by entry, skipping IDs already present
// — a crash can lose the acknowledgment but keep the write — and only the
// entries actually applied are logged, keeping the WAL replayable into a
// fresh engine without duplicate-ID errors.
func (s *Server) applyResyncOp(op wire.ResyncOp) error {
	switch op.Op {
	case wire.ResyncInsert:
		applied := make([]mindex.Entry, 0, len(op.Entries))
		for _, e := range op.Entries {
			switch err := s.eng.InsertBulk([]mindex.Entry{e}); {
			case err == nil:
				applied = append(applied, e)
			case errors.Is(err, mindex.ErrDuplicateID):
				// Already delivered before the crash; keep it.
			default:
				return err
			}
		}
		return s.walAppend(wal.OpInsert, applied)
	case wire.ResyncDelete:
		if _, err := s.eng.Delete(op.Entries); err != nil {
			return err
		}
		return s.walAppend(wal.OpDelete, op.Entries)
	}
	return fmt.Errorf("unknown resync op %d", op.Op)
}

// helloResp summarizes this server for the hello handshake: deployment
// mode, index shape, and the live entry count as a health signal.
func (s *Server) helloResp() wire.HelloResp {
	cfg := s.eng.Config()
	mode := wire.HelloModeEncrypted
	if s.plain != nil {
		mode = wire.HelloModePlain
	}
	shards := max(1, cfg.Shards)
	return wire.HelloResp{
		Version:        wire.ProtocolVersion,
		Mode:           mode,
		NumPivots:      uint32(cfg.NumPivots),
		MaxLevel:       uint32(cfg.MaxLevel),
		BucketCapacity: uint32(cfg.BucketCapacity),
		Ranking:        uint8(cfg.Ranking),
		// Multi-shard engines split every shard root eagerly, so their
		// leaves always sit at prefix length >= 1 regardless of the
		// engine-level flag.
		EagerRootSplit: cfg.EagerRootSplit || shards > 1,
		Shards:         uint32(shards),
		Entries:        uint64(s.eng.Size()),
	}
}

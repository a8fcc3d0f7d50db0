package wire

import (
	"fmt"
	"math"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
)

// This file defines the typed payloads of each protocol message. Every type
// has Encode() []byte (the flat batch reply is encoded from ranked results,
// see BatchRankedResp.AppendFlatTo) and a package-level Decode function; both
// sides of the protocol share them, so the byte counts measured by the
// benchmark are the exact bytes a real deployment would ship.

// appendEntries writes a count-prefixed entry list.
func appendEntries(b *Buffer, entries []mindex.Entry) {
	b.U32(uint32(len(entries)))
	for i := range entries {
		b.B = mindex.AppendEntry(b.B, entries[i])
	}
}

func readEntries(r *Reader) []mindex.Entry {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	// Each entry occupies at least 20 bytes on the wire.
	if n < 0 || n > len(r.b)/20+1 {
		r.err = ErrCodec
		return nil
	}
	out := make([]mindex.Entry, 0, n)
	for range n {
		e, rest, err := mindex.DecodeEntry(r.b)
		if err != nil {
			r.err = err
			return nil
		}
		r.b = rest
		out = append(out, e)
	}
	return out
}

// DeleteEntriesReq tombstones the referenced entries (encrypted
// deployment). Each reference is an entry record carrying only the ID and
// the permutation prefix — the prefix's first element routes the delete to
// the owning index shard, so a delete reveals exactly the pivot-space
// metadata the original insert already revealed. The request reuses the
// entry codec, and a delete ships as a flight of such frames, like an
// insert's chunks.
type DeleteEntriesReq struct {
	Refs []mindex.Entry
}

// Encode serializes the request payload.
func (m DeleteEntriesReq) Encode() []byte {
	var b Buffer
	appendEntries(&b, m.Refs)
	return b.B
}

// DecodeDeleteEntriesReq parses a DeleteEntriesReq payload.
func DecodeDeleteEntriesReq(p []byte) (DeleteEntriesReq, error) {
	r := NewReader(p)
	m := DeleteEntriesReq{Refs: readEntries(r)}
	return m, r.Err()
}

// DeleteAckResp acknowledges a delete: Deleted counts the entries actually
// tombstoned (references to unknown or already-deleted IDs are skipped).
type DeleteAckResp struct {
	ServerNanos uint64
	Deleted     uint32
}

// Encode serializes the response payload.
func (m DeleteAckResp) Encode() []byte {
	var b Buffer
	b.U64(m.ServerNanos)
	b.U32(m.Deleted)
	return b.B
}

// DecodeDeleteAckResp parses a DeleteAckResp payload.
func DecodeDeleteAckResp(p []byte) (DeleteAckResp, error) {
	r := NewReader(p)
	m := DeleteAckResp{ServerNanos: r.U64(), Deleted: r.U32()}
	return m, r.Err()
}

// Plain query kinds carried by a PlainQueryReq.
const (
	// PlainRange is the precise range query (Q, Radius).
	PlainRange uint8 = iota + 1
	// PlainKNN is the precise k-NN query (Q, K).
	PlainKNN
	// PlainApprox is the approximate k-NN query (Q, K, CandSize).
	PlainApprox
	// PlainFirstCell is the restricted 1-cell approximate k-NN of the
	// paper's Section 5.4 comparison (Q, K): the server ranks its Voronoi
	// cells against the raw query and refines the single most promising one.
	PlainFirstCell
)

// PlainQueryReq is the plain deployment's query (MsgPlainQuery): the raw
// query vector plus the fields its kind needs, evaluated fully server-side.
// Only the kind's fields travel.
type PlainQueryReq struct {
	Kind     uint8
	Q        metric.Vector
	Radius   float64 // PlainRange
	K        uint32  // PlainKNN, PlainApprox, PlainFirstCell
	CandSize uint32  // PlainApprox
}

// Encode serializes the request payload.
func (m PlainQueryReq) Encode() []byte {
	var b Buffer
	b.U8(m.Kind)
	b.Vec(m.Q)
	switch m.Kind {
	case PlainRange:
		b.F64(m.Radius)
	case PlainApprox:
		b.U32(m.K)
		b.U32(m.CandSize)
	default:
		b.U32(m.K)
	}
	return b.B
}

// DecodePlainQueryReq parses a PlainQueryReq payload.
func DecodePlainQueryReq(p []byte) (PlainQueryReq, error) {
	r := NewReader(p)
	m := PlainQueryReq{Kind: r.U8(), Q: r.VecField()}
	switch m.Kind {
	case PlainRange:
		m.Radius = r.F64()
	case PlainKNN, PlainFirstCell:
		m.K = r.U32()
	case PlainApprox:
		m.K, m.CandSize = r.U32(), r.U32()
	default:
		return PlainQueryReq{}, ErrCodec
	}
	return m, r.Err()
}

// DeleteObjectsReq tombstones plain-deployment objects by ID. The plain
// server owns the pivots and the location map, so — unlike the encrypted
// DeleteEntriesReq — no permutation routing metadata travels with the
// request. Answered with MsgDeleteAck; batchable like MsgDeleteEntries.
type DeleteObjectsReq struct {
	IDs []uint64
}

// Encode serializes the request payload.
func (m DeleteObjectsReq) Encode() []byte {
	var b Buffer
	b.U32(uint32(len(m.IDs)))
	for _, id := range m.IDs {
		b.U64(id)
	}
	return b.B
}

// DecodeDeleteObjectsReq parses a DeleteObjectsReq payload.
func DecodeDeleteObjectsReq(p []byte) (DeleteObjectsReq, error) {
	r := NewReader(p)
	n := int(r.U32())
	// Each ID occupies exactly 8 bytes on the wire.
	if n < 0 || n > len(p)/8+1 {
		return DeleteObjectsReq{}, ErrCodec
	}
	m := DeleteObjectsReq{IDs: make([]uint64, 0, n)}
	for range n {
		id := r.U64()
		if r.err != nil {
			break
		}
		m.IDs = append(m.IDs, id)
	}
	return m, r.Err()
}

// CandidatesResp is a candidate set of whole entries. No message carries it
// since protocol version 4; it stays because the benchmark's per-layer
// trace (benchmark/layers.go) measures the encode and decode of a candidate
// set with it.
type CandidatesResp struct {
	ServerNanos uint64
	DistNanos   uint64
	Entries     []mindex.Entry
}

// AppendTo appends the encoded response to b.
func (m CandidatesResp) AppendTo(b *Buffer) {
	b.U64(m.ServerNanos)
	b.U64(m.DistNanos)
	appendEntries(b, m.Entries)
}

// DecodeCandidatesResp parses a CandidatesResp payload.
func DecodeCandidatesResp(p []byte) (CandidatesResp, error) {
	r := NewReader(p)
	m := CandidatesResp{ServerNanos: r.U64(), DistNanos: r.U64(), Entries: readEntries(r)}
	return m, r.Err()
}

// Result is one final answer of a plain query: the object and its distance
// to the query.
type Result struct {
	ID   uint64
	Dist float64
	Vec  metric.Vector
}

// ResultsResp returns refined results (plain deployment).
type ResultsResp struct {
	ServerNanos uint64
	DistNanos   uint64
	Results     []Result
}

// Encode serializes the response payload.
func (m ResultsResp) Encode() []byte {
	var b Buffer
	b.U64(m.ServerNanos)
	b.U64(m.DistNanos)
	b.U32(uint32(len(m.Results)))
	for _, res := range m.Results {
		b.U64(res.ID)
		b.F64(res.Dist)
		b.Vec(res.Vec)
	}
	return b.B
}

// DecodeResultsResp parses a ResultsResp payload.
func DecodeResultsResp(p []byte) (ResultsResp, error) {
	r := NewReader(p)
	m := ResultsResp{ServerNanos: r.U64(), DistNanos: r.U64()}
	n := int(r.U32())
	if n < 0 || n > len(p)/20+1 {
		return m, ErrCodec
	}
	m.Results = make([]Result, 0, n)
	for range n {
		id := r.U64()
		d := r.F64()
		vec := r.VecField()
		if r.err != nil {
			break
		}
		m.Results = append(m.Results, Result{ID: id, Dist: d, Vec: vec})
	}
	return m, r.Err()
}

// AckResp acknowledges an end of ingest, a blob put or a re-sync, carrying
// the server's time.
type AckResp struct {
	ServerNanos uint64
}

// Encode serializes the response payload.
func (m AckResp) Encode() []byte {
	var b Buffer
	b.U64(m.ServerNanos)
	return b.B
}

// DecodeAckResp parses an AckResp payload.
func DecodeAckResp(p []byte) (AckResp, error) {
	r := NewReader(p)
	m := AckResp{ServerNanos: r.U64()}
	return m, r.Err()
}

// ErrorResp carries a server-side failure to the client.
type ErrorResp struct {
	Msg string
}

// Encode serializes the response payload.
func (m ErrorResp) Encode() []byte {
	var b Buffer
	b.String(m.Msg)
	return b.B
}

// DecodeErrorResp parses an ErrorResp payload.
func DecodeErrorResp(p []byte) (ErrorResp, error) {
	r := NewReader(p)
	m := ErrorResp{Msg: r.StringField()}
	return m, r.Err()
}

// RemoteError is the client-side error for a MsgError response.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("wire: server error: %s", e.Msg) }

// Query kinds carried by a BatchQueryReq. Each reveals exactly what its
// fields carry — a pivot permutation or a (transformed) pivot-distance
// vector — and never the query object.
const (
	// BatchRange is the one bound-ordered read (mindex.KindRange): pivot
	// distances, a radius (+Inf for none) and a candidate size (0 for none).
	// It is a range query, and a precise k-NN's first page (radius +Inf, cut
	// at its candidate size) and resumed pages. Every answer is a page
	// (PageBytes), and its flat reply ends in a Page trailer.
	BatchRange uint8 = iota + 1
	// BatchApproxPerm is an approximate k-NN candidate request under the
	// footrule ranking (pivot permutation + candidate size).
	BatchApproxPerm
	// BatchApproxDists is an approximate k-NN candidate request under the
	// distance-sum ranking (pivot distances + candidate size).
	BatchApproxDists
	// BatchFirstCell asks for the single most promising Voronoi cell: the
	// permutation under the footrule ranking, the distance vector under
	// distance-sum — exactly one of the two is non-empty.
	BatchFirstCell
	// BatchAll asks for every stored entry (mindex.KindAll) and carries no
	// fields: the trivial baseline's download, and the export path. Kind 5,
	// the bound-ordered query of versions 3 to 7, decodes as unknown.
	BatchAll uint8 = 6
)

// BatchQuery is one encrypted read query: a tagged union over the query
// shapes above.
type BatchQuery struct {
	Kind     uint8
	Perm     []int32   // BatchApproxPerm, BatchFirstCell (footrule)
	Dists    []float64 // BatchRange, BatchApproxDists, BatchFirstCell (distsum)
	Radius   float64   // BatchRange
	CandSize uint32    // BatchApproxPerm, BatchApproxDists, BatchRange (0: no count cut)
	// After is a BatchRange's optional keyset cursor: only entries whose
	// bound key sorts after it qualify (mindex.Query.After).
	After *mindex.BoundKey
}

// PageBytes is the byte budget of one page of a BatchRange answer, a
// constant of the protocol: a page holds the qualifying entries with the
// smallest bound keys, taken until their candidate records reach it or
// until there are CandSize of them — at least one record, and at most
// PageBytes plus one (mindex.PageEnd). Every server, and a coordinator
// asking its nodes, pages with this budget.
const PageBytes = 1 << 20

// Page is the trailer of a BatchRange result's flat reply. Full reports a
// page that reached a cut — its records reached PageBytes, or it holds the
// query's CandSize entries — so the order may go on past it, and Last, its
// last candidate's bound key, is the cursor (BatchQuery.After) that asks
// for the next page. A page that is not full is the last one.
type Page struct {
	Full bool
	Last mindex.BoundKey
}

// PageOf is the trailer of a range page cut at candSize entries (0: no
// count cut): an index's candidates, or a coordinator's merge of its nodes'
// pages, each carrying its bound as its promise.
func PageOf[T any, P interface {
	mindex.Sized[T]
	Rank() (float64, []int32, uint64)
}](rcs []T, candSize int) Page {
	if !(candSize > 0 && len(rcs) >= candSize) && !mindex.PageFull[T, P](rcs, PageBytes) {
		return Page{}
	}
	lb, _, id := P(&rcs[len(rcs)-1]).Rank()
	return Page{Full: true, Last: mindex.BoundKey{LB: lb, ID: id}}
}

// CheckFull refuses a page announced full in answer to q that no honest
// server sends: n candidates whose records (bytes) reach neither PageBytes
// nor q's CandSize, a Last that is not the last candidate's (lastID) key, or
// a Last that does not sort after q's cursor — the order would not advance,
// and the reads would never end. A reader checks every full page with it
// before asking for the next.
func (p Page) CheckFull(q BatchQuery, n, bytes int, lastID uint64) error {
	if n == 0 || (bytes < PageBytes && (q.CandSize == 0 || n < int(q.CandSize))) {
		return fmt.Errorf("a range page of %d candidates (%d B) announced full, under the page budget and the candidate size %d", n, bytes, q.CandSize)
	}
	if lastID != p.Last.ID || (q.After != nil && p.Last.Compare(*q.After) <= 0) {
		return fmt.Errorf("a full range page ends at key %+v, which does not follow its last candidate %d after the cursor", p.Last, lastID)
	}
	return nil
}

// AppendPage writes a page trailer: a flag byte, then for a full page its
// last key.
func AppendPage(b *Buffer, p Page) {
	if !p.Full {
		b.U8(0)
		return
	}
	b.U8(1)
	b.F64(p.Last.LB)
	b.U64(p.Last.ID)
}

// readPage reads a page trailer; any flag but 0 and 1 is an error, so a
// trailer has one encoding.
func readPage(r *Reader) Page {
	switch r.U8() {
	case 0:
		return Page{}
	case 1:
		return Page{Full: true, Last: mindex.BoundKey{LB: r.F64(), ID: r.U64()}}
	}
	if r.err == nil {
		r.err = ErrCodec
	}
	return Page{}
}

// IndexQuery validates q against an index over numPivots pivots and
// translates it into the index's query form, restricted to allow. It is the
// one place a wire query kind is given its index meaning: the server's
// dispatch, the coordinator's per-kind combine and the in-process
// DirectClient all evaluate whatever this returns.
func (q BatchQuery) IndexQuery(numPivots int, allow mindex.PivotFilter) (mindex.Query, error) {
	out := mindex.Query{
		ApproxQuery: mindex.ApproxQuery{Dists: q.Dists},
		Radius:      q.Radius,
		CandSize:    int(q.CandSize),
		Allow:       allow,
	}
	switch q.Kind {
	case BatchRange:
		out.Kind = mindex.KindRange
		out.Page = PageBytes
	case BatchApproxPerm, BatchApproxDists:
		out.Kind = mindex.KindApprox
	case BatchFirstCell:
		out.Kind = mindex.KindFirstCell
	case BatchAll:
		out.Kind = mindex.KindAll
	default:
		return out, fmt.Errorf("unknown batch query kind %d", q.Kind)
	}
	if q.After != nil {
		// The cursor is the bound of an entry the server itself returned:
		// finite and non-negative, and only a range resumes after one.
		if q.Kind != BatchRange {
			return out, fmt.Errorf("cursor on a non-range query (kind %d)", q.Kind)
		}
		if lb := q.After.LB; !(lb >= 0 && lb <= math.MaxFloat64) {
			return out, fmt.Errorf("cursor bound %g is not finite and non-negative", lb)
		}
		out.After = q.After
	}
	switch {
	case q.Kind == BatchApproxDists:
		out.Ranks = pivot.Ranks(pivot.Permutation(q.Dists))
	case q.Kind == BatchApproxPerm, q.Kind == BatchFirstCell && len(q.Perm) > 0:
		// A permutation off the wire indexes the promise tables: anything
		// but a true permutation must become an error response, never a
		// panic. (A first-cell query without one is the distance-sum form;
		// the index rejects a query missing what its ranking needs.)
		if !pivot.ValidPermutation(q.Perm, numPivots) {
			return out, fmt.Errorf("request permutation is not a permutation of %d pivots", numPivots)
		}
		out.Ranks = pivot.Ranks(q.Perm)
	}
	return out, nil
}

// BatchQueryReq is the encrypted read request (MsgBatchQuery): k queries in
// one frame, amortizing one round trip and one frame header over the batch —
// a lone query is a batch of one. The server answers with one candidate set
// per query, in request order.
type BatchQueryReq struct {
	Queries []BatchQuery
	// Ranked keeps each candidate's source-cell promise and prefix on the
	// reply (MsgBatchRankedCandidates carrying a BatchRankedResp instead of
	// MsgBatchCandidates carrying a BatchQueryResp). The cluster
	// coordinator sets it to merge per-node streams.
	Ranked bool
	// Allow restricts every query to the entries whose first permutation
	// element is listed, evaluated as if the index held nothing else; nil
	// allows everything. A replicated coordinator uses it to assign each
	// first-level Voronoi cell to exactly one live owner, so every entry is
	// counted once no matter how many replicas hold it.
	Allow []int32
	// Counts asks for the ranked reply as counts (MsgBatchCellCounts
	// carrying a BatchCellCountsResp): per query, the cells its candidate
	// stream draws from and how many candidates each gives, and no
	// candidate. Only approximate queries may ask for it. The cluster
	// coordinator sends it first, to learn how many candidates each node
	// contributes to the merge before it fetches them.
	Counts bool
}

// Trailer flags of an encoded BatchQueryReq.
const (
	batchRanked   uint8 = 1 << 0
	batchFiltered uint8 = 1 << 1
	batchCursors  uint8 = 1 << 2
	batchCounts   uint8 = 1 << 3
)

// Encode serializes the request payload: the query list, then — only when
// Ranked, Counts, Allow or a query's After is set — a trailer of a flags
// byte, the allow-list, and the cursors as (query index, LB, ID) in query
// order. A plain client query therefore costs no trailer bytes.
func (m BatchQueryReq) Encode() []byte {
	var b Buffer
	b.U32(uint32(len(m.Queries)))
	cursors := 0
	for _, q := range m.Queries {
		b.U8(q.Kind)
		switch q.Kind {
		case BatchRange:
			b.F64Slice(q.Dists)
			b.F64(q.Radius)
			b.U32(q.CandSize)
		case BatchApproxPerm:
			b.I32Slice(q.Perm)
			b.U32(q.CandSize)
		case BatchApproxDists:
			b.F64Slice(q.Dists)
			b.U32(q.CandSize)
		case BatchFirstCell:
			b.I32Slice(q.Perm)
			b.F64Slice(q.Dists)
		}
		if q.After != nil {
			cursors++
		}
	}
	var flags uint8
	if m.Ranked {
		flags |= batchRanked
	}
	if m.Counts {
		flags |= batchCounts
	}
	if m.Allow != nil {
		flags |= batchFiltered
	}
	if cursors > 0 {
		flags |= batchCursors
	}
	if flags != 0 {
		b.U8(flags)
		if m.Allow != nil {
			b.I32Slice(m.Allow)
		}
		if cursors > 0 {
			b.U32(uint32(cursors))
			for i, q := range m.Queries {
				if q.After != nil {
					b.U32(uint32(i))
					b.F64(q.After.LB)
					b.U64(q.After.ID)
				}
			}
		}
	}
	return b.B
}

// readAllow reads an allow-list that is present on the wire: never nil, so
// an empty list keeps meaning "allow nothing".
func readAllow(r *Reader) []int32 {
	if allow := r.I32Slice(); allow != nil {
		return allow
	}
	return []int32{}
}

// DecodeBatchQueryReq parses a BatchQueryReq payload.
func DecodeBatchQueryReq(p []byte) (BatchQueryReq, error) {
	r := NewReader(p)
	n := int(r.U32())
	// Each query occupies at least its kind byte.
	if n < 0 || n > len(p) {
		return BatchQueryReq{}, ErrCodec
	}
	m := BatchQueryReq{Queries: make([]BatchQuery, 0, n)}
	for range n {
		q := BatchQuery{Kind: r.U8()}
		switch q.Kind {
		case BatchRange:
			q.Dists = r.F64Slice()
			q.Radius = r.F64()
			q.CandSize = r.U32()
		case BatchApproxPerm:
			q.Perm = r.I32Slice()
			q.CandSize = r.U32()
		case BatchApproxDists:
			q.Dists = r.F64Slice()
			q.CandSize = r.U32()
		case BatchFirstCell:
			q.Perm = r.I32Slice()
			q.Dists = r.F64Slice()
		case BatchAll: // no fields
		default:
			return BatchQueryReq{}, ErrCodec
		}
		if r.err != nil {
			return BatchQueryReq{}, r.err
		}
		m.Queries = append(m.Queries, q)
	}
	if len(r.b) > 0 {
		flags := r.U8()
		if flags == 0 || flags&^(batchRanked|batchFiltered|batchCursors|batchCounts) != 0 {
			return BatchQueryReq{}, ErrCodec
		}
		m.Ranked = flags&batchRanked != 0
		m.Counts = flags&batchCounts != 0
		if flags&batchFiltered != 0 {
			m.Allow = readAllow(r)
		}
		if flags&batchCursors != 0 {
			readCursors(r, m.Queries)
		}
	}
	return m, r.Err()
}

// readCursors attaches a request trailer's cursors to their queries. Each
// cursor occupies 20 bytes; the query indices must rise strictly, so that
// there is one encoding of a request and no query gets two cursors.
func readCursors(r *Reader, queries []BatchQuery) {
	n := int(r.U32())
	if r.err == nil && (n <= 0 || n > len(queries) || n > len(r.b)/20) {
		r.err = ErrCodec
	}
	prev := -1
	for range n {
		at := int(r.U32())
		k := mindex.BoundKey{LB: r.F64(), ID: r.U64()}
		if r.err != nil {
			return
		}
		if at <= prev || at >= len(queries) {
			r.err = ErrCodec
			return
		}
		queries[at].After = &k
		prev = at
	}
}

// BatchQueryResp is the flat answer to a BatchQueryReq (MsgBatchCandidates):
// one candidate set per query, parallel to the request's query list.
// ServerNanos covers the whole batch. Servers hold ranked results and encode
// this form with BatchRankedResp.AppendFlatTo; this type is what the
// receiving side decodes into.
type BatchQueryResp struct {
	ServerNanos uint64
	Results     [][]mindex.Entry
	// Pages holds, parallel to Results, a BatchRange result's page trailer
	// (the zero Page for other kinds).
	Pages []Page
}

// readTrailer reads the trailer of flat result i of the answer to queries:
// a Page after a BatchRange result, nothing after the others.
func readTrailer(r *Reader, queries []BatchQuery, i int) Page {
	if i < len(queries) && queries[i].Kind == BatchRange {
		return readPage(r)
	}
	return Page{}
}

// DecodeBatchQueryResp parses a BatchQueryResp payload, the answer to
// queries, into entries that own their memory. The client's read path
// decodes the same payload by reference (CandidateRefs.DecodeFlat); this
// form is the definition that one is fuzzed against, and what tools and
// tests that keep the entries use.
func DecodeBatchQueryResp(p []byte, queries []BatchQuery) (BatchQueryResp, error) {
	r := NewReader(p)
	m := BatchQueryResp{ServerNanos: r.U64()}
	n := int(r.U32())
	// Each result occupies at least its 4-byte entry count.
	if n < 0 || n > len(p)/4+1 {
		return m, ErrCodec
	}
	m.Results = make([][]mindex.Entry, 0, n)
	m.Pages = make([]Page, 0, n)
	for i := range n {
		entries := readEntries(r)
		page := readTrailer(r, queries, i)
		if r.err != nil {
			break
		}
		m.Results = append(m.Results, entries)
		m.Pages = append(m.Pages, page)
	}
	return m, r.Err()
}

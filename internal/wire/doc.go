// Package wire implements the binary client–server protocol of the
// similarity cloud: length-prefixed frames over TCP, a compact field codec,
// and the typed request/response messages exchanged by the encrypted and
// plain clients, the server, the cluster coordinator, and the baseline
// protocols.
//
// The protocol is deliberately explicit about what each request reveals:
// encrypted-deployment requests carry only pivot permutations or pivot
// distance vectors (never the query object), while plain-deployment requests
// carry the raw query vector — making the privacy difference between the two
// variants directly visible on the wire, where the benchmark harness
// measures communication cost.
//
// # One request per concept, stable numbers, a version
//
// The encrypted deployment has exactly one read request: MsgBatchQuery
// carrying a BatchQueryReq — one or more BatchQuery values (range — the
// one bound-ordered read, which is also a precise k-NN's first page —
// approximate by permutation or by distances, first cell, and all: the
// trivial baseline's download of every entry), plus optional trailer
// fields: Ranked (keep each candidate's source-cell promise and prefix on
// the reply) and Allow (restrict evaluation to listed first-level cells;
// nil = all), which the cluster coordinator uses on the
// node hop, and the range queries' keyset cursors (BatchQuery.After, as
// query index, bound, ID). BatchQuery.IndexQuery is the single translation
// of a wire query into the index's mindex.Query, and the one place a cursor
// is checked: finite, non-negative, on a range query only. The flat reply
// is the ranked one with the annotations dropped, except that a BatchRange
// result ends in a page trailer — whether the page is full, and the key of
// its last candidate, whose bound the client cannot compute — so the flat
// decoders take the request's query list.
//
// Protocol version 4 left one request per concept. Download-all became the
// BatchAll kind, so a replicated coordinator restricts it with the same
// allow-list and combines it with the same rule as every other kind. The
// raw data of the paper's Figure 1 and the encrypted indexes of the
// compared techniques (EHI nodes, FDH buckets) share one keyed blob store:
// MsgPutBlobs replaces the blob lists of the keys it names in one space,
// MsgGetBlobs answers one list per requested key (MsgBlobs), and the server
// sees keys and ciphertexts only. The plain deployment's four queries are
// one MsgPlainQuery whose kind selects the fields that travel.
//
// Protocol version 5 left one insert request. An insert of entries is a
// pipelined flight of sequence-numbered MsgIngestChunk frames (raw objects:
// MsgIngestObjChunk), each answered by MsgIngestChunkAck with the server's
// time and distance time; a streamed ingest windows the same frames and
// closes with MsgIngestEnd, whose MsgAck follows the WAL flush. Only one
// chunk, never a whole collection, has to fit in MaxFrameSize.
//
// Protocol version 6 added the count form of a ranked read: a
// BatchQueryReq with Counts set is answered by MsgBatchCellCounts, per
// approximate query the (promise, prefix, count) runs of the candidate
// stream and no candidate, so the cluster coordinator learns each node's
// share of the cross-node merge before it fetches the winners. AckResp lost
// its distance time, which nothing produced any more.
//
// The precise k-NN's two requests (protocol version 3) are the two pages of
// one stateless order: the first asks for the first CandSize entries by
// (pivot lower bound, ID), computed in the server's own (transformed)
// space; a BatchRange with After resumes that order past the last of them.
// The first page sends the same transformed distance vector the second has
// always sent, and the cursor is a value the server computed itself, so the
// pair reveals nothing the range query alone did not.
//
// Protocol version 7 reads that order in bounded pages. A BatchRange — a
// range query, or a precise k-NN's resumed range — is answered one page at
// a time: the qualifying entries with the smallest (bound, ID) keys, taken
// until their candidate records reach PageBytes (a constant of the
// protocol; at least one record, at most PageBytes plus one). The flat
// result ends in a page trailer (Page): a flag byte, and for a full page
// the key of its last candidate, which the next request sends back as its
// After; a page that is not full is the last. A ranked range page — a node's
// answer to its coordinator — carries each candidate's bound as its promise
// in strict key order, so the coordinator merges the nodes' pages by key and
// cuts at the same budget. Every later page repeats the query's own vector
// and radius, and its cursor is a key the server computed itself, so the
// pages reveal nothing beyond what the single reply revealed; no hop holds
// more than a page of one query in a frame.
//
// Protocol version 8 left one bound-ordered read. A BatchRange carries a
// candidate size beside its radius, and the radius may be +Inf: the answer
// is cut at the first of the radius, CandSize entries and PageBytes, and a
// page is Full when it reached either cut. A precise k-NN's first page is a
// range of radius +Inf cut at its candidate size, so no bound-ordered reply
// at any hop holds more than a page plus one record. The bound-ordered kind
// (5) is gone; its kind byte decodes as an unknown kind. Download-all
// (BatchAll) still answers in one frame.
//
// A candidate of a query reply is an entry record holding the ID and the
// payload and nothing else: perm, dists and vec are written with length
// zero (appendCandidate). The index metadata has been used by the time an
// entry is a candidate — the server pruned, filtered and ranked with it, and
// the refining client reads the ciphertext alone — so it is not shipped. The
// layout is still mindex.AppendEntry's, so ScanEntry, CandidateRefs and the
// coordinator's span relay all parse it unchanged. A BatchAll answer, the
// export path, is such records too: the ID and the ciphertext of every
// entry, and no index metadata.
//
// Message numbers are explicit constants that never change; numbers of
// retired messages stay reserved and are refused by name (RetiredError).
// ProtocolVersion travels in HelloResp.Version, and both ends of a
// handshake refuse a mismatched peer (HelloResp.CheckVersion) — payload
// shapes differ between versions, so talking on would mis-decode rather
// than fail.
//
// # Key invariant: hostile-input safety and frame limits
//
// Every byte of a frame is untrusted until decoded. A frame is a uint32
// length prefix (covering type byte + payload) followed by the type byte
// and payload; the frame reader (ReadFrameInto, and ReadFrame on top of it)
// rejects frames larger than MaxFrameSize (1 GiB) and, below that, grows its
// buffer only as payload bytes actually arrive, so a corrupted or hostile
// length prefix costs the receiver what was sent plus one bounded step —
// never the claimed size up front. Within a payload, every count-prefixed
// list bounds its claimed element count by the payload bytes actually
// present before allocating, and every decoder returns ErrCodec (never
// panics, never over-reads) on malformed input — properties exercised
// continuously by the fuzz targets in this package and by the CI fuzz-smoke
// job.
//
// Decoders accept exactly what the encoders produce, so the byte counts
// measured by the benchmarks are the exact bytes a real deployment ships.
//
// # Copying decoders, by-reference decoders, and who may use which
//
// Every Decode function copies what it returns out of the payload, and
// mindex.DecodeEntry — the decoder of every entry that is inserted,
// ingested, re-synced or logged — does too: what a server keeps must not
// pin, or be overwritten with, the frame it arrived in. The read path
// has a second form for the candidate replies, the bulkiest frames there
// are: CandidateRefs (DecodeRanked, DecodeFlat) locates each candidate's
// fields as spans of the payload, on top of mindex.ScanEntry, the one parser
// of the entry record. It accepts exactly what the copying decoders accept
// (FuzzScanEntry, FuzzDecodeRankedRefs) and allocates nothing per candidate.
//
// The lifetime rule: a frame read with ReadFrameInto lives in a pooled
// Buffer (GetBuffer / PutBuffer), and whoever leases that buffer releases it
// by defer in the same function; nothing decoded by reference may be
// returned past that function, and a pooled CandidateRefs is Reset before it
// is put back. PoisonBuffers turns a violation from an occasional wrong byte
// into a certain one for the tests that exercise the leasing packages.
//
// WriteFrame sends a small frame (any request, ack or error) as a single
// Write; larger payloads go out as header, then payload, uncopied.
//
// # Context-derived deadlines
//
// ArmContext is the single bridge between context semantics and net.Conn
// deadlines: it projects a context's deadline onto the connection for the
// duration of one exchange, interrupts blocked IO when the context is
// cancelled, and maps the resulting net timeout back to an error wrapping
// ctx.Err(). Every client round trip, every pipelined batch flight, and
// every coordinator→node exchange goes through it, so no layer above wire
// ever calls SetDeadline directly.
package wire

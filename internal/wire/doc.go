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
// # One read request, stable numbers, a version
//
// The encrypted deployment has exactly one read request: MsgBatchQuery
// carrying a BatchQueryReq — one or more BatchQuery values (range,
// approximate by permutation or by distances, first cell), plus two
// optional trailer fields the cluster coordinator uses on the node hop:
// Ranked (keep each candidate's source-cell promise and prefix on the
// reply) and Allow (restrict evaluation to listed first-level cells; nil =
// all). BatchQuery.IndexQuery is the single translation of a wire query
// into the index's mindex.Query; the flat reply is the ranked one with the
// annotations dropped. MsgDownloadAll takes the same allow-list as its
// optional payload.
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
// and payload; ReadFrame rejects frames larger than MaxFrameSize (1 GiB)
// so a corrupted or hostile length prefix cannot make the receiver
// allocate unboundedly. Within a payload, every count-prefixed list bounds
// its claimed element count by the payload bytes actually present before
// allocating, and every decoder returns ErrCodec (never panics, never
// over-reads) on malformed input — properties exercised continuously by
// the fuzz targets in this package and by the CI fuzz-smoke job.
//
// Decoders accept exactly what the encoders produce, so the byte counts
// measured by the benchmarks are the exact bytes a real deployment ships.
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

// Package core implements the Encrypted M-Index — the paper's contribution:
// client-side algorithms that let an authorized client, holding the secret
// key (pivot set + cipher key), use an untrusted similarity-cloud server as
// an efficient metric index without ever revealing plaintext objects,
// pivots, or the distance function.
//
// The division of labor follows Section 4.2:
//
//   - Insert (Algorithm 1): the client computes object–pivot distances,
//     derives the pivot permutation, encrypts the object, and ships
//     {permutation [, distances], ciphertext} to the server, which files it
//     into the M-Index cell tree. Every networked write is one pipelined
//     flight of Options.BatchChunk-item frames (ingest, deleteFlight):
//     Insert prepares every entry and then ships its chunks, InsertStream
//     prepares each chunk inside a window of unacknowledged ones and closes
//     with a WAL flush, and Delete ships its references the same way.
//   - Search (Algorithm 2): the client computes query–pivot distances,
//     sends only the permutation (approximate k-NN) or the distance vector
//     (precise range) to the server, receives a pre-ranked candidate set of
//     encrypted objects, decrypts them, and refines by computing true
//     query–object distances.
//   - Precise k-NN: a first pass provides an upper bound ρk on the k-th
//     neighbor distance; the subsequent precise range query R(q, ρk)
//     guarantees the exact answer. With stored distances the first pass
//     is the server's first CandSize entries in bound order — its own pivot
//     lower bound max_p |d(q,p) − d(o,p)|, ties by ID — and the range
//     resumes that order after the last of them (a keyset cursor), so no
//     candidate is shipped twice and a first pass whose last bound exceeds
//     the range radius settles the query alone. Without distances the first
//     pass is the footrule-ordered approximate k-NN. One composition (knn:
//     startKNN, nextKNN, finish) serves every backend.
//   - Paging: a range answer — a range query, or a precise k-NN's second
//     phase — comes in pages of at most wire.PageBytes of candidates (plus
//     one), each resuming the server's bound order after the last key of
//     the one before. One paging loop (pages) serves Search, SearchBatch's
//     later waves and DirectClient: it refines each page as it arrives and
//     releases the page's frame before asking for the next.
//
// # The unified query surface
//
// One Query value (Kind ∈ {KindRange, KindKNN, KindApproxKNN,
// KindFirstCell} plus K, Radius, CandSize, RefineLimit) describes every
// similarity query, and the Searcher interface —
// Search(ctx, Query) / SearchBatch(ctx, []Query) — evaluates it on any of
// three backends:
//
//   - EncryptedClient: the paper's deployment. Client-side transform and
//     refinement; the server sees only pivot-space metadata.
//   - PlainClient: the non-encrypted baseline. The raw query travels to
//     the server, which refines everything itself — by running this
//     package's pipeline: the plain server drives a DirectClient over its
//     own engine whose object codec is raw (PlainBackend, rawCodec) instead
//     of the secret key, so the baseline's entries, searches, refinement
//     and precise k-NN are the encrypted deployment's.
//   - DirectClient: the index engine embedded in-process — the same coder
//     (transform + refinement) as EncryptedClient, no network.
//
// For the same key, configuration and collection, all three return
// identical result lists for every query kind (enforced by
// TestSearcherBackendEquivalence). Search and SearchBatch are the only
// query entry points; on the wire every encrypted query, alone or batched,
// is one wire.MsgBatchQuery, and the in-process DirectClient evaluates the
// same wire.BatchQuery through the same wire-to-index translation
// (wire.BatchQuery.IndexQuery) the server's dispatch uses.
//
// # Refinement reads candidates where they lie
//
// The networked client reads each response frame into a pooled buffer and
// decodes the candidates by reference (wire.CandidateRefs): no permutation,
// distance vector or ciphertext is copied out of the frame. Refinement
// decrypts a chunk of candidates into reused scratch, computes their
// distances there and gives an Object memory of its own only if it is still
// among the K nearest — or within the radius — at the end, so the results a
// caller receives never alias a frame. The frames of an exchange are
// released in the scope that declared them (a flight per wave, released by
// defer in search after the last refinement over it); nothing
// decoded by reference leaves that scope. DecryptTime and DistCompTime are
// still timed as two phases, alternating chunk by chunk.
//
// # Contexts, deadlines, concurrency
//
// Every operation takes (or has a ...Context variant taking) a
// context.Context that is honored end to end: the context's deadline
// becomes the connection's read/write deadline for each round trip
// (internal/wire.ArmContext), cancellation interrupts an exchange blocked
// on a stalled server, and the pipelined batch path additionally checks
// for cancellation between chunks. Context errors surface wrapped, so
// errors.Is(err, context.DeadlineExceeded) works.
//
// The networked clients are safe for concurrent use: operations lease
// connections from a wire.Link — the one connection type of every hop, the
// coordinator's and the baseline clients' included — dialed on demand
// through the hello handshake, reused while healthy, discarded the moment
// an exchange on them fails, so goroutines sharing one client never
// interleave frames on one socket.
//
// # Key invariant: the server address is just an address
//
// A client built here never assumes what stands behind the address it
// dials: a bare server, a sharded server, or a cluster coordinator
// federating many servers (internal/cluster) all speak the identical
// protocol and return identically ordered candidate sets, so deployments
// scale from one process to many nodes without any client change — and
// without the client revealing anything more. The dial handshake verifies
// only what must hold for the conversation to be meaningful: the protocol
// version, the deployment mode, and (for encrypted clients) the pivot
// count of the key.
//
// Every operation returns a stats.Costs decomposition (client, server,
// communication time; encryption, decryption, distance-computation time;
// bytes on the wire), which the benchmark harness aggregates into the
// paper's tables.
package core

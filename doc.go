// Package simcloud is a similarity cloud with data privacy: a Go
// implementation of the Encrypted M-Index (Kozák, Novák, Zezula: "Secure
// Metric-Based Index for Similarity Cloud", SDM @ VLDB 2012).
//
// The system outsources metric similarity search to an untrusted server
// while the data owner retains a two-part secret key: the set of reference
// objects (pivots) and a symmetric cipher key. The server indexes only
// {pivot permutation [, pivot distances], ciphertext} records in an M-Index
// — a dynamic metric index built on recursive Voronoi partitioning — and can
// prune, rank and filter candidate sets without ever being able to evaluate
// the distance function or read an object. Authorized clients refine the
// candidate sets locally (decrypt + compute true distances).
//
// # Key invariant
//
// Everything the cloud side does — filing, pruning, ranking, sharding,
// cross-node merging — consumes only pivot-space metadata (permutation
// prefixes and, optionally, object–pivot distances), never objects, pivots,
// or the distance function. Only key-holding clients can turn candidates
// into answers.
//
// # Quick start
//
//	dist := simcloud.L2()
//	pivots := simcloud.SelectPivots(1, dist, data, 16)
//	key, _ := simcloud.GenerateKey(pivots)
//
//	srv, _ := simcloud.NewEncryptedServer(simcloud.DefaultConfig(16))
//	srv.Start("127.0.0.1:0")
//	defer srv.Close()
//
//	client, _ := simcloud.DialEncrypted(srv.Addr(), key, simcloud.ClientOptions{})
//	defer client.Close()
//	client.Insert(data)
//	results, costs, _ := client.Search(ctx, simcloud.Query{
//		Kind: simcloud.KindApproxKNN, Vec: query, K: 10, CandSize: 200,
//	})
//
// One Query value describes every query kind — precise range (KindRange),
// precise k-NN (KindKNN: a first pass that learns ρk, then the range ρk),
// approximate k-NN
// with a tunable candidate-set size (KindApproxKNN), and the restricted
// 1-cell search (KindFirstCell) — all with the paper's cost decomposition
// (client / server / communication time, encryption / decryption time,
// bytes on the wire). Search and SearchBatch honor the context end to end:
// its deadline bounds every round trip and cancellation interrupts an
// exchange blocked on a stalled server.
//
// The same Searcher interface is implemented by three backends: the
// encrypted client above, the non-encrypted baseline (DialPlain), and an
// embedded in-process engine (NewDirectClient) for the library scenario —
// identical queries, identical answers (see DESIGN.md §API).
//
// # Mutability
//
// The index is mutable: EncryptedClient.Delete tombstones entries by {ID,
// permutation prefix} — the same pivot-space metadata an insert reveals —
// and the server compacts tombstones away either on demand or
// automatically (Config.AutoCompactFraction). After compaction
// the index is byte-identical to one freshly built from the surviving
// entries (see DESIGN.md §Mutability), so churn workloads (sustained
// insert/delete at steady state) preserve exact search semantics.
//
// # Scaling out
//
// For heavy concurrent traffic the server-side index can be partitioned:
// Config.Shards > 1 (or DefaultShardedConfig) splits the M-Index across
// independently locked shards keyed by the first permutation element, with
// searches fanned out over a bounded worker pool and merged by cell promise
// — result sets are preserved (see DESIGN.md §Sharding). On the client,
// EncryptedClient.Insert, Delete and SearchBatch pipeline chunked frames so
// many operations share one round trip.
//
// Beyond one process, NewCoordinator federates several encrypted servers
// into a multi-node similarity cloud: entries place on node Perm[0] mod N,
// queries fan out and merge by the same (promise, prefix, source) order a
// sharded single server uses, and clients dial the coordinator with
// DialEncrypted unchanged. A 1-node cluster behaves exactly like that node
// served directly, and a multi-node cluster returns the identical ranked
// candidate lists a single server would (see DESIGN.md §Distribution and
// examples/cluster).
//
// Subpackages under internal implement the substrates: the metric-space
// framework, the M-Index, the encryption layer, the wire protocol, the
// cluster coordinator, the compared baseline techniques (EHI, FDH, trivial
// download), the synthetic stand-ins for the paper's data sets, and the
// benchmark harness that regenerates every evaluation table (see DESIGN.md
// and EXPERIMENTS.md).
package simcloud

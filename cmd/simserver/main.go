// Command simserver runs a similarity-cloud server.
//
// Encrypted deployment (the server never sees keys, pivots or plaintext):
//
//	simserver -mode encrypted -addr :4040 -pivots 30
//
// Plain deployment (the baseline; the server owns the pivots, supplied via
// the key file — appropriate only for non-sensitive data):
//
//	simserver -mode plain -addr :4040 -key yeast.key
//
// The index parameters must match what clients were configured with (number
// of pivots, max level).
//
// A simserver is also the node role of a multi-node cluster: simcoord
// federates several simservers behind one address (see cmd/simcoord).
// Nodes of a multi-node cluster must run with -eager-root-split (or
// -shards > 1, which implies it) so their promise values stay comparable
// in the coordinator's cross-node merge.
//
// With -wal-dir every acknowledged mutation is appended to a write-ahead
// log before the acknowledgment leaves the server, and a restart replays
// the log — a killed node recovers its pre-crash state, which a replicated
// simcoord cluster (-replicas > 1) relies on when re-admitting it. The log
// composes with -snapshot: a successful shutdown snapshot truncates the
// log, so recovery is snapshot restore plus replay of the tail.
//
// SIGINT or SIGTERM shuts down in the order drain (answer the requests
// already read, for at most two seconds) → snapshot → log reset → close, so
// no write lands between the snapshot and the reset.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/wal"
)

func main() {
	var (
		mode     = flag.String("mode", "encrypted", "deployment: encrypted or plain")
		addr     = flag.String("addr", "127.0.0.1:4040", "listen address")
		pivots   = flag.Int("pivots", 30, "number of pivots (must match the client key)")
		maxLevel = flag.Int("max-level", 8, "maximum cell-tree depth")
		bucket   = flag.Int("bucket", 200, "bucket capacity")
		storage  = flag.String("storage", "memory", "bucket storage: memory or disk")
		diskPath = flag.String("disk-path", "", "bucket directory for -storage disk")
		diskMB   = flag.Int("disk-cache-mb", 32, "read-through bucket cache budget in MiB for -storage disk, total across all shards (0 disables)")
		ranking  = flag.String("ranking", "footrule", "cell ranking: footrule or distsum")
		keyFile  = flag.String("key", "", "key file (plain mode only: supplies the pivots)")
		snapshot = flag.String("snapshot", "", "snapshot file: restore on start if present, save on shutdown (encrypted mode with -storage disk)")
		shards   = flag.Int("shards", 1, "index shard count: >1 partitions the M-Index across independently locked shards")
		autoComp = flag.Float64("auto-compact", 0, "compact a shard when its tombstoned fraction reaches this value in [0,1); 0 leaves compaction to restarts")
		eager    = flag.Bool("eager-root-split", false, "split the root cell on the first insert; required when this server joins a multi-node simcoord cluster (implied by -shards > 1)")
		walDir   = flag.String("wal-dir", "", "write-ahead log directory (encrypted mode): every mutation is logged before it is acknowledged, and a restart replays the log")
		walSync  = flag.String("wal-sync", "always", "WAL durability: always (fsync each append), group (one fsync per commit window — streamed ingests flush before the final ack) or never (OS page cache)")
	)
	flag.Parse()

	cfg := mindex.Config{
		NumPivots:           *pivots,
		MaxLevel:            min(*maxLevel, *pivots),
		BucketCapacity:      *bucket,
		DiskPath:            *diskPath,
		Shards:              *shards,
		EagerRootSplit:      *eager,
		AutoCompactFraction: *autoComp,
	}
	// Config convention: 0 means the library default, negative disables —
	// a 0 on the command line reads as "no cache", so translate it.
	if *diskMB <= 0 {
		cfg.DiskCacheBytes = -1
	} else {
		cfg.DiskCacheBytes = *diskMB << 20
	}
	switch *storage {
	case "memory":
		cfg.Storage = mindex.StorageMemory
	case "disk":
		cfg.Storage = mindex.StorageDisk
	default:
		fmt.Fprintf(os.Stderr, "simserver: unknown storage %q\n", *storage)
		os.Exit(2)
	}
	switch *ranking {
	case "footrule":
		cfg.Ranking = mindex.RankFootrule
	case "distsum":
		cfg.Ranking = mindex.RankDistSum
	default:
		fmt.Fprintf(os.Stderr, "simserver: unknown ranking %q\n", *ranking)
		os.Exit(2)
	}

	if *snapshot != "" && (*mode != "encrypted" || cfg.Storage != mindex.StorageDisk) {
		fmt.Fprintln(os.Stderr, "simserver: -snapshot requires -mode encrypted and -storage disk")
		os.Exit(2)
	}
	if *walDir != "" && *mode != "encrypted" {
		fmt.Fprintln(os.Stderr, "simserver: -wal-dir requires -mode encrypted")
		os.Exit(2)
	}
	walPolicy, perr := wal.ParseSyncPolicy(*walSync)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "simserver: %v\n", perr)
		os.Exit(2)
	}

	var srv *server.Server
	var err error
	switch *mode {
	case "encrypted":
		if *snapshot != "" {
			exists, serr := engine.SnapshotExists(cfg, *snapshot)
			if serr != nil {
				// Files of a different shard layout: refuse to silently
				// start empty over (or mixed with) the persisted data.
				fmt.Fprintf(os.Stderr, "simserver: %v\n", serr)
				os.Exit(1)
			}
			if exists {
				eng, lerr := engine.LoadSnapshot(cfg, *snapshot)
				if lerr != nil {
					// A snapshot that exists but cannot be restored must
					// never be overwritten by the empty index an oblivious
					// start would save on shutdown: exit before serving.
					fmt.Fprintf(os.Stderr, "simserver: restoring snapshot: %v (refusing to start and overwrite it)\n", lerr)
					os.Exit(1)
				}
				srv = server.NewEncryptedWithEngine(eng)
				fmt.Printf("simserver: restored %d entries from %s\n", eng.Size(), *snapshot)
				break
			}
		}
		srv, err = server.NewEncrypted(cfg)
	case "plain":
		if *keyFile == "" {
			fmt.Fprintln(os.Stderr, "simserver: plain mode requires -key to supply the pivots")
			os.Exit(2)
		}
		blob, rerr := os.ReadFile(*keyFile)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "simserver: reading key: %v\n", rerr)
			os.Exit(1)
		}
		key, kerr := secret.Unmarshal(blob)
		if kerr != nil {
			fmt.Fprintf(os.Stderr, "simserver: parsing key: %v\n", kerr)
			os.Exit(1)
		}
		cfg.NumPivots = key.Pivots().N()
		if cfg.MaxLevel > cfg.NumPivots {
			cfg.MaxLevel = cfg.NumPivots
		}
		var b *core.PlainBackend
		if b, err = core.NewPlainBackend(cfg, key.Pivots()); err == nil {
			srv = server.NewPlain(b)
		}
	default:
		fmt.Fprintf(os.Stderr, "simserver: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
		os.Exit(1)
	}
	var mlog *wal.Log
	if *walDir != "" {
		l, recs, werr := wal.Open(*walDir, walPolicy)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "simserver: %v\n", werr)
			os.Exit(1)
		}
		// With -snapshot, surviving records are the post-snapshot tail (a
		// successful snapshot save truncates the log below).
		if rerr := wal.Replay(recs, srv.Index()); rerr != nil {
			fmt.Fprintf(os.Stderr, "simserver: %v\n", rerr)
			os.Exit(1)
		}
		if len(recs) > 0 {
			fmt.Printf("simserver: replayed %d WAL records from %s (%d entries indexed)\n",
				len(recs), l.Path(), srv.Index().Size())
		}
		srv.AttachWAL(l)
		mlog = l
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("simserver: %s deployment listening on %s (pivots=%d maxLevel=%d bucket=%d storage=%v shards=%d)\n",
		*mode, srv.Addr(), cfg.NumPivots, cfg.MaxLevel, cfg.BucketCapacity, cfg.Storage, max(1, cfg.Shards))

	// SIGINT/SIGTERM trigger the same snapshot-saving shutdown as a clean
	// exit; a second signal while the snapshot is being written forces an
	// immediate exit (the half-written file is a .tmp sibling — the
	// previous snapshot survives, see mindex.SaveSnapshot).
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nsimserver: shutting down")
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "simserver: second signal, exiting without saving")
		os.Exit(1)
	}()
	// Stop serving before saving, so the snapshot holds every acknowledged
	// write and the log reset drops none.
	exitCode := 0
	if err := srv.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "simserver: stopping: %v\n", err)
		exitCode = 1
	}
	if *snapshot != "" {
		if err := srv.Index().SaveSnapshot(*snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "simserver: saving snapshot: %v\n", err)
			exitCode = 1
		} else {
			fmt.Printf("simserver: saved %d entries to %s\n", srv.Index().Size(), *snapshot)
			// Snapshot-plus-truncate compaction: the snapshot now covers
			// every logged mutation, so the log restarts empty.
			if mlog != nil {
				if err := mlog.Reset(); err != nil {
					fmt.Fprintf(os.Stderr, "simserver: truncating WAL: %v\n", err)
					exitCode = 1
				}
			}
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "simserver: close: %v\n", err)
		exitCode = 1
	}
	if mlog != nil {
		if err := mlog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "simserver: closing WAL: %v\n", err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

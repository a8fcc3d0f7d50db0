package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/wire"
)

func testKey(t *testing.T) (*secret.Key, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(42, 200, 6, 4, metric.L2{})
	rng := rand.New(rand.NewPCG(42, 1))
	pv := pivot.SelectRandom(rng, ds.Dist, ds.Objects, testPivotCount)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	return key, ds
}

// stalledServer answers the hello handshake correctly and then swallows
// every further frame without ever replying — the pathological peer the
// context plumbing exists for. It reports how many connections it has
// accepted and how many of them the client has closed.
type stalledServer struct {
	ln     net.Listener
	opened atomic.Int32
	closed atomic.Int32
}

func newStalledServer(t *testing.T, mode uint8, numPivots int) *stalledServer {
	t.Helper()
	return newStalledServerHello(t,
		wire.HelloResp{Version: wire.ProtocolVersion, Mode: mode, NumPivots: uint32(numPivots)}.Encode())
}

// newStalledServerHello is newStalledServer answering hellos with the given
// raw payload.
func newStalledServerHello(t *testing.T, hello []byte) *stalledServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stalledServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.opened.Add(1)
			go func(conn net.Conn) {
				defer func() {
					conn.Close()
					s.closed.Add(1)
				}()
				for {
					typ, _, err := wire.ReadFrame(conn)
					if err != nil {
						return // client closed (or gave up)
					}
					if typ == wire.MsgHello {
						if err := wire.WriteFrame(conn, wire.MsgHelloAck, hello); err != nil {
							return
						}
						continue
					}
					// Any real request: stall forever (never answer).
					select {}
				}
			}(conn)
		}
	}()
	return s
}

// TestDialRejectsProtocolMismatch: a server answering the hello in the
// version-1 shape (no trailing version field) — or announcing any other
// version, among them version 7, whose precise k-NN's first page comes
// whole in one frame — is refused at dial time with an error
// naming both versions, not mis-decoded, and the socket is released.
func TestDialRejectsProtocolMismatch(t *testing.T) {
	key, _ := testKey(t)
	current := wire.HelloResp{Version: wire.ProtocolVersion, Mode: wire.HelloModeEncrypted, NumPivots: testPivotCount}
	if current.Version != 8 {
		t.Fatalf("protocol version %d, want 8", current.Version)
	}
	older, newer := current, current
	older.Version, newer.Version = 7, wire.ProtocolVersion+1
	for name, tc := range map[string]struct {
		hello []byte
		peer  string
	}{
		"v1-shaped": {current.Encode()[:len(current.Encode())-4], "v1"},
		"v7":        {older.Encode(), "v7"},
		"newer":     {newer.Encode(), fmt.Sprintf("v%d", newer.Version)},
	} {
		srv := newStalledServerHello(t, tc.hello)
		client, err := DialEncrypted(srv.ln.Addr().String(), key, Options{MaxLevel: testMaxLevel})
		if err == nil {
			client.Close()
			t.Fatalf("%s: dial succeeded against a mismatched peer", name)
		}
		if !strings.Contains(err.Error(), tc.peer) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", wire.ProtocolVersion)) {
			t.Fatalf("%s: error %q does not name both versions", name, err)
		}
		waitFor(t, name+": rejected dial to release its connection",
			func() bool { return srv.opened.Load() > 0 && srv.closed.Load() == srv.opened.Load() })
	}
}

// TestSearchDeadlineAgainstStalledServer is the acceptance criterion: a
// blocked server no longer hangs the client — a Search under a
// 100ms-deadline context against a stalled listener returns within ~1s
// with an error wrapping context.DeadlineExceeded.
func TestSearchDeadlineAgainstStalledServer(t *testing.T) {
	key, ds := testKey(t)
	srv := newStalledServer(t, wire.HelloModeEncrypted, testPivotCount)
	client, err := DialEncrypted(srv.ln.Addr().String(), key, Options{MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = client.Search(ctx, Query{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 3, CandSize: 10})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded Search took %v", elapsed)
	}
}

// TestSearchCancelInterruptsBlockedRead: cancelling the context (no
// deadline involved) interrupts a Search blocked on a stalled server.
func TestSearchCancelInterruptsBlockedRead(t *testing.T) {
	key, ds := testKey(t)
	srv := newStalledServer(t, wire.HelloModeEncrypted, testPivotCount)
	client, err := DialEncrypted(srv.ln.Addr().String(), key, Options{MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = client.SearchBatch(ctx, []Query{
		{Kind: KindRange, Vec: ds.Objects[0].Vec, Radius: 5},
		{Kind: KindApproxKNN, Vec: ds.Objects[1].Vec, K: 2, CandSize: 10},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled SearchBatch took %v", elapsed)
	}
}

// TestBatchCancelLeavesClientUsable: a context cancelled mid-batch poisons
// only its leased connection; a subsequent Search on a fresh lease works.
func TestBatchCancelLeavesClientUsable(t *testing.T) {
	client, ds, _ := testCloud(t, Options{BatchChunk: 4}, true)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // dead before the flight starts
	qs := make([]Query, 32)
	for i := range qs {
		qs[i] = Query{Kind: KindApproxKNN, Vec: ds.Objects[i].Vec, K: 3, CandSize: 20}
	}
	if _, _, err := client.SearchBatch(cancelled, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}

	// A short-deadline batch that dies mid-flight (the deadline fires while
	// chunks are in transit on a live server is timing-dependent; the
	// already-expired deadline exercises the same release path).
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, _, err := client.SearchBatch(expired, qs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}

	// The client survives: fresh lease, working query, exact same answer as
	// an uncancelled client would produce.
	got, _, err := client.Search(context.Background(), Query{Kind: KindApproxKNN, Vec: ds.Objects[0].Vec, K: 3, CandSize: 20})
	if err != nil {
		t.Fatalf("Search after cancelled batch: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("Search after cancelled batch returned nothing")
	}
}

// TestConcurrentSearchSharedClient hammers one EncryptedClient from many
// goroutines through the lease pool (run under -race in CI): mixed kinds,
// batches, and mutations must neither race nor cross answers between
// goroutines.
func TestConcurrentSearchSharedClient(t *testing.T) {
	client, ds, _ := testCloud(t, Options{BatchChunk: 8}, true)
	ctx := context.Background()

	// Precompute the expected answer of every probe sequentially; queries
	// are deterministic, so each goroutine must reproduce them exactly — a
	// crossed response (another goroutine's answer on the same lease) shows
	// up as a wrong answer, not just as a race.
	probes := make([]Query, 6)
	expected := make([][]Result, len(probes))
	for i := range probes {
		kinds := []Query{
			{Kind: KindApproxKNN, Vec: ds.Objects[i*37].Vec, K: 3, CandSize: 30},
			{Kind: KindRange, Vec: ds.Objects[i*37].Vec, Radius: 4},
			{Kind: KindFirstCell, Vec: ds.Objects[i*37].Vec, K: 2},
		}
		probes[i] = kinds[i%len(kinds)]
		want, _, err := client.Search(ctx, probes[i])
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = want
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for range 12 {
				pi := rng.IntN(len(probes))
				if rng.IntN(2) == 0 {
					got, _, err := client.Search(ctx, probes[pi])
					if err != nil {
						errs <- err
						return
					}
					if d := diffResults(expected[pi], got); d != "" {
						errs <- fmt.Errorf("probe %d: concurrent answer differs: %s", pi, d)
						return
					}
				} else {
					pj := rng.IntN(len(probes))
					got, _, err := client.SearchBatch(ctx, []Query{probes[pi], probes[pj]})
					if err != nil {
						errs <- err
						return
					}
					if d := diffResults(expected[pi], got[0]); d != "" {
						errs <- fmt.Errorf("probe %d: batched answer differs: %s", pi, d)
						return
					}
					if d := diffResults(expected[pj], got[1]); d != "" {
						errs <- fmt.Errorf("probe %d: batched answer differs: %s", pj, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDialFailureClosesConn audits the connection-leak fix: a dial that
// fails after the TCP connect — here a handshake pivot-count mismatch —
// must close the raw connection, observed through the wrapped listener's
// open/closed accounting.
func TestDialFailureClosesConn(t *testing.T) {
	key, _ := testKey(t) // key over testPivotCount pivots
	srv := newStalledServer(t, wire.HelloModeEncrypted, testPivotCount+3)
	if _, err := DialEncrypted(srv.ln.Addr().String(), key, Options{MaxLevel: testMaxLevel}); err == nil {
		t.Fatal("pivot-count mismatch accepted")
	}
	waitFor(t, "handshake-rejected connection closed", func() bool {
		return srv.opened.Load() == 1 && srv.closed.Load() == 1
	})

	// Mode mismatch: a plain client dialing an encrypted deployment.
	if _, err := DialPlain(srv.ln.Addr().String()); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	waitFor(t, "mode-rejected connection closed", func() bool {
		return srv.opened.Load() == 2 && srv.closed.Load() == 2
	})
}

// TestDialContextDeadline: the dial handshake itself is bounded by ctx —
// a listener that accepts but never answers the hello cannot hang Dial.
func TestDialContextDeadline(t *testing.T) {
	key, _ := testKey(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn // accept and never answer anything
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialEncryptedContext(ctx, ln.Addr().String(), key, Options{MaxLevel: testMaxLevel})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline-bounded dial took %v", elapsed)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

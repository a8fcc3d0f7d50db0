package simcloud

// End-to-end test of the command-line tools: build the binaries, generate a
// collection and a key, start a server process, and drive it with the
// client — the deployment story the README documents.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTools compiles the cmd binaries once into a shared temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"simdatagen", "simkeygen", "simserver", "simclient", "simbench", "simcoord", "simgate"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Dir = "."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			conn.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

func TestCommandLinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()
	data := filepath.Join(work, "demo.simcdat")
	keyFile := filepath.Join(work, "demo.key")

	// Generate a small clustered collection and the owner's key.
	out := run(t, filepath.Join(bins, "simdatagen"),
		"-name", "clustered", "-n", "400", "-dim", "8", "-clusters", "5",
		"-dist", "L2", "-seed", "3", "-out", data)
	if !strings.Contains(out, "400") {
		t.Fatalf("datagen output: %s", out)
	}
	out = run(t, filepath.Join(bins, "simkeygen"),
		"-data", data, "-pivots", "10", "-out", keyFile)
	if !strings.Contains(out, "10 pivots") {
		t.Fatalf("keygen output: %s", out)
	}
	if fi, err := os.Stat(keyFile); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode: %v, err %v", fi.Mode(), err)
	}

	// Start the encrypted server.
	addr := freePort(t)
	srv := exec.Command(filepath.Join(bins, "simserver"),
		"-mode", "encrypted", "-addr", addr, "-pivots", "10", "-max-level", "4")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitListening(t, addr)

	client := filepath.Join(bins, "simclient")
	out = run(t, client, "-addr", addr, "-key", keyFile, "-max-level", "4",
		"-op", "insert", "-data", data)
	if !strings.Contains(out, "inserted 400 encrypted objects") {
		t.Fatalf("insert output: %s", out)
	}

	// Approximate k-NN: the query object itself must come back first with
	// distance 0.
	out = run(t, client, "-addr", addr, "-key", keyFile, "-max-level", "4",
		"-op", "approx", "-data", data, "-query", "5", "-k", "3", "-cand", "50")
	if !strings.Contains(out, "approx-knn: 3 results") || !strings.Contains(out, "id=5") {
		t.Fatalf("approx output: %s", out)
	}

	// Precise k-NN and range.
	out = run(t, client, "-addr", addr, "-key", keyFile, "-max-level", "4",
		"-op", "knn", "-data", data, "-query", "5", "-k", "2", "-cand", "50")
	if !strings.Contains(out, "knn: 2 results") {
		t.Fatalf("knn output: %s", out)
	}
	out = run(t, client, "-addr", addr, "-key", keyFile, "-max-level", "4",
		"-op", "range", "-data", data, "-query", "5", "-radius", "10")
	if !strings.Contains(out, "range:") {
		t.Fatalf("range output: %s", out)
	}
}

// TestCommandLinePlainPipeline drives the plain deployment through the
// binaries, its index split across two shards like an encrypted one.
func TestCommandLinePlainPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()
	data := filepath.Join(work, "demo.simcdat")
	keyFile := filepath.Join(work, "demo.key")
	run(t, filepath.Join(bins, "simdatagen"),
		"-name", "clustered", "-n", "300", "-dim", "6", "-clusters", "4",
		"-dist", "L1", "-seed", "9", "-out", data)
	run(t, filepath.Join(bins, "simkeygen"),
		"-data", data, "-pivots", "8", "-out", keyFile)

	addr := freePort(t)
	srv := exec.Command(filepath.Join(bins, "simserver"),
		"-mode", "plain", "-addr", addr, "-key", keyFile, "-max-level", "4", "-shards", "2")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitListening(t, addr)

	client := filepath.Join(bins, "simclient")
	out := run(t, client, "-addr", addr, "-plain", "-op", "insert", "-data", data)
	if !strings.Contains(out, "inserted 300 objects") {
		t.Fatalf("insert output: %s", out)
	}
	out = run(t, client, "-addr", addr, "-plain",
		"-op", "knn", "-data", data, "-query", "7", "-k", "4")
	if !strings.Contains(out, "knn: 4 results") || !strings.Contains(out, "id=7") {
		t.Fatalf("knn output: %s", out)
	}
}

// TestCommandLineSnapshotRestart verifies the server restart story: an
// encrypted disk-backed server saves its index on SIGTERM and restores it
// on the next start, so clients query without re-ingesting.
func TestCommandLineSnapshotRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()
	data := filepath.Join(work, "demo.simcdat")
	keyFile := filepath.Join(work, "demo.key")
	buckets := filepath.Join(work, "buckets")
	snap := filepath.Join(work, "index.snap")

	run(t, filepath.Join(bins, "simdatagen"),
		"-name", "clustered", "-n", "500", "-dim", "6", "-clusters", "5",
		"-dist", "L2", "-seed", "4", "-out", data)
	run(t, filepath.Join(bins, "simkeygen"),
		"-data", data, "-pivots", "10", "-out", keyFile)

	startSrv := func(addr string) *exec.Cmd {
		srv := exec.Command(filepath.Join(bins, "simserver"),
			"-mode", "encrypted", "-addr", addr, "-pivots", "10", "-max-level", "4",
			"-storage", "disk", "-disk-path", buckets, "-snapshot", snap)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		waitListening(t, addr)
		return srv
	}

	addr := freePort(t)
	srv := startSrv(addr)
	client := filepath.Join(bins, "simclient")
	run(t, client, "-addr", addr, "-key", keyFile, "-max-level", "4",
		"-op", "insert", "-data", data)

	// Graceful shutdown saves the snapshot.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server exit: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Restart on a fresh port: the index must be there without re-insert.
	addr2 := freePort(t)
	srv2 := startSrv(addr2)
	defer func() {
		srv2.Process.Kill()
		srv2.Wait()
	}()
	out := run(t, client, "-addr", addr2, "-key", keyFile, "-max-level", "4",
		"-op", "approx", "-data", data, "-query", "8", "-k", "3", "-cand", "50")
	if !strings.Contains(out, "approx-knn: 3 results") || !strings.Contains(out, "id=8") {
		t.Fatalf("post-restart query output: %s", out)
	}
}

// TestCommandLineSnapshotUnderWrites: a SIGINT while clients are still
// inserting must leave a disk server that restarts on the same paths and
// holds every insert it acknowledged. The server stops serving before it
// saves the snapshot and resets the log; saving first let a write land in
// the bucket files after the snapshot took its version, and the restart
// then refused the bucket file as corrupt (or the reset dropped the write).
func TestCommandLineSnapshotUnderWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()
	const loaded, writers = 3000, 4
	data := ClusteredData(21, loaded+writers*2000, 8, 5, L2())
	key, err := GenerateKey(SelectPivots(21, data.Dist, data.Objects[:loaded], 10))
	if err != nil {
		t.Fatal(err)
	}
	opts := ClientOptions{MaxLevel: 4}
	startSrv := func() (*exec.Cmd, string) {
		addr := freePort(t)
		var out strings.Builder
		srv := exec.Command(filepath.Join(bins, "simserver"),
			"-mode", "encrypted", "-addr", addr, "-pivots", "10", "-max-level", "4",
			"-storage", "disk", "-disk-path", filepath.Join(work, "buckets"),
			"-snapshot", filepath.Join(work, "index.snap"), "-wal-dir", filepath.Join(work, "wal"))
		srv.Stdout, srv.Stderr = &out, &out
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Process.Kill()
			srv.Wait()
			if t.Failed() {
				t.Logf("simserver on %s:\n%s", addr, out.String())
			}
		})
		waitListening(t, addr)
		return srv, addr
	}

	srv, addr := startSrv()
	loader, err := DialEncrypted(addr, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Insert(data.Objects[:loaded]); err != nil {
		t.Fatal(err)
	}
	loader.Close()

	// Four clients insert one object per call until the server goes away.
	var mu sync.Mutex
	var acked []uint64
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialEncrypted(addr, key, opts)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := loaded + w; i < len(data.Objects); i += writers {
				if _, err := c.Insert(data.Objects[i : i+1]); err != nil {
					return
				}
				mu.Lock()
				acked = append(acked, data.Objects[i].ID)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server exit: %v", err)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no insert was acknowledged before the signal")
	}

	srv2, addr2 := startSrv()
	client, err := DialEncrypted(addr2, key, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, _, err := client.Search(context.Background(), Query{Kind: KindRange, Vec: data.Objects[0].Vec, Radius: math.MaxFloat32})
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[uint64]bool, len(res))
	for _, r := range res {
		have[r.ID] = true
	}
	for _, o := range data.Objects[:loaded] {
		acked = append(acked, o.ID)
	}
	for _, id := range acked {
		if !have[id] {
			t.Fatalf("acknowledged object %d is missing after the restart (%d of %d acknowledged objects present)",
				id, len(have), len(acked))
		}
	}
	srv2.Process.Signal(os.Interrupt)
	srv2.Wait()
}

func TestSimbenchTables1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	out := run(t, filepath.Join(bins, "simbench"), "-table", "1")
	for _, want := range []string{"YEAST", "2882", "HUMAN", "4026", "CoPhIR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
	out = run(t, filepath.Join(bins, "simbench"), "-table", "2")
	if !strings.Contains(out, "disk") || !strings.Contains(out, "100") {
		t.Fatalf("table 2 output:\n%s", out)
	}
}

// TestCommandLineClusterPipeline drives the multi-node deployment story of
// the README: three simserver nodes, a simcoord federating them, and the
// unchanged simclient talking to the coordinator's address.
func TestCommandLineClusterPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()
	data := filepath.Join(work, "demo.simcdat")
	keyFile := filepath.Join(work, "demo.key")
	run(t, filepath.Join(bins, "simdatagen"),
		"-name", "clustered", "-n", "600", "-dim", "8", "-clusters", "5",
		"-dist", "L2", "-seed", "11", "-out", data)
	run(t, filepath.Join(bins, "simkeygen"),
		"-data", data, "-pivots", "10", "-out", keyFile)

	// Three encrypted nodes; multi-node clusters require -eager-root-split.
	var nodeAddrs []string
	for range 3 {
		addr := freePort(t)
		srv := exec.Command(filepath.Join(bins, "simserver"),
			"-mode", "encrypted", "-addr", addr, "-pivots", "10", "-max-level", "4",
			"-eager-root-split")
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			srv.Process.Kill()
			srv.Wait()
		}()
		waitListening(t, addr)
		nodeAddrs = append(nodeAddrs, addr)
	}

	coordAddr := freePort(t)
	coord := exec.Command(filepath.Join(bins, "simcoord"),
		"-addr", coordAddr, "-nodes", strings.Join(nodeAddrs, ","))
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		coord.Process.Kill()
		coord.Wait()
	}()
	waitListening(t, coordAddr)

	// The unchanged client sees one similarity cloud.
	client := filepath.Join(bins, "simclient")
	out := run(t, client, "-addr", coordAddr, "-key", keyFile, "-max-level", "4",
		"-op", "insert", "-data", data)
	if !strings.Contains(out, "inserted 600 encrypted objects") {
		t.Fatalf("insert output: %s", out)
	}
	out = run(t, client, "-addr", coordAddr, "-key", keyFile, "-max-level", "4",
		"-op", "approx", "-data", data, "-query", "5", "-k", "3", "-cand", "60")
	if !strings.Contains(out, "approx-knn: 3 results") || !strings.Contains(out, "id=5") {
		t.Fatalf("approx output: %s", out)
	}
	out = run(t, client, "-addr", coordAddr, "-key", keyFile, "-max-level", "4",
		"-op", "delete", "-data", data, "-from", "5", "-to", "6")
	if !strings.Contains(out, "deleted 1") {
		t.Fatalf("delete output: %s", out)
	}
}

// TestCommandLineGatewayPipeline is the HTTP deployment story end to end:
// a simgate process serving demo tenants, driven by simbench's open-loop
// generator over real sockets, then scraped — the CI gateway-e2e job in
// Go-test form.
func TestCommandLineGatewayPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bins := buildTools(t)
	work := t.TempDir()

	addr := freePort(t)
	gate := exec.Command(filepath.Join(bins, "simgate"),
		"-addr", addr, "-tenants", "smoke=smoke-key", "-n", "500")
	if err := gate.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		gate.Process.Kill()
		gate.Wait()
	}()
	waitListening(t, addr)

	// Open-loop run: ~2s at 100 q/s, JSON report to a file.
	jsonPath := filepath.Join(work, "openloop.json")
	out := run(t, filepath.Join(bins, "simbench"),
		"-openloop", "-gateway", "http://"+addr, "-apikey", "smoke-key",
		"-qps", "100", "-conns", "4", "-duration", "2s", "-k", "5", "-json", jsonPath)
	if !strings.Contains(out, "Open-loop load test") {
		t.Fatalf("openloop output: %s", out)
	}

	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Iterations int64              `json:"iterations"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("openloop JSON: %v\n%s", err, blob)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("openloop JSON has %d results, want 1", len(doc.Results))
	}
	m := doc.Results[0].Metrics
	if m["achieved_qps"] <= 0 {
		t.Fatalf("achieved_qps %v, want > 0", m["achieved_qps"])
	}
	if m["errors"] != 0 {
		t.Fatalf("open-loop run hit %v errors", m["errors"])
	}
	if m["p50_ms"] <= 0 || m["p999_ms"] < m["p99_ms"] || m["p99_ms"] < m["p50_ms"] {
		t.Fatalf("implausible percentiles: p50=%v p99=%v p999=%v", m["p50_ms"], m["p99_ms"], m["p999_ms"])
	}

	// The gateway's request counter must agree with the generator: every
	// served query plus the warm-up request.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`simgate_requests_total{tenant="smoke",code="200"} %d`, int64(m["ok"])+1)
	if !strings.Contains(string(metrics), want) {
		t.Fatalf("metrics missing %q:\n%s", want, metrics)
	}
}

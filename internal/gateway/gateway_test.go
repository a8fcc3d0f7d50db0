package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/leaktest"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// postJSON sends one request and decodes the response body into out.
func postJSON(t *testing.T, client *http.Client, url, apiKey string, body, out any) int {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// demoGateway builds a one-tenant gateway over an in-process index and
// serves it from an httptest server.
func demoGateway(t *testing.T, adm Admission) (*httptest.Server, core.Searcher) {
	t.Helper()
	tenant, err := DemoTenant("t1", "t1-key", 7, 800, 6, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{Tenants: []Tenant{tenant}, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(func() { srv.Close(); gw.Close() })
	return srv, tenant.Backend
}

// queryVec returns a deterministic in-space query vector.
func queryVec(dim int, seed float32) []float32 {
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = seed + float32(i)
	}
	return vec
}

// TestGatewayEquivalence is the HTTP leg of the three-backend equivalence
// guarantee: for every query kind, the results served over the gateway are
// identical — IDs, distances, vectors — to what the tenant's backend
// returns for the same Query through the Go Search API.
func TestGatewayEquivalence(t *testing.T) {
	leaktest.Check(t)
	// Every pooled buffer is overwritten the moment it is released: a
	// candidate view that outlived its frame would corrupt an answer here
	// every time, not once in a while.
	wire.PoisonBuffers(t)
	srv, backend := demoGateway(t, Admission{})
	vec := queryVec(6, 1.5)

	cases := []struct {
		name string
		req  SearchRequest
		q    core.Query
	}{
		{"range", SearchRequest{Kind: "range", Vec: vec, Radius: 12},
			core.Query{Kind: core.KindRange, Vec: vec, Radius: 12}},
		{"knn", SearchRequest{Kind: "knn", Vec: vec, K: 5},
			core.Query{Kind: core.KindKNN, Vec: vec, K: 5}},
		{"approx-knn", SearchRequest{Kind: "approx-knn", Vec: vec, K: 5, CandSize: 100},
			core.Query{Kind: core.KindApproxKNN, Vec: vec, K: 5, CandSize: 100}},
		{"first-cell", SearchRequest{Kind: "first-cell", Vec: vec, K: 3},
			core.Query{Kind: core.KindFirstCell, Vec: vec, K: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := backend.Search(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			var got SearchResponse
			if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", tc.req, &got); code != 200 {
				t.Fatalf("HTTP %d", code)
			}
			if got.Degraded {
				t.Fatal("unloaded gateway degraded a query")
			}
			assertSameResults(t, got.Results, want)
		})
	}

	// And the batch route: all four kinds in one request must equal the
	// backend's SearchBatch answer query by query.
	t.Run("batch", func(t *testing.T) {
		var reqs []SearchRequest
		var qs []core.Query
		for _, tc := range cases {
			reqs = append(reqs, tc.req)
			qs = append(qs, tc.q)
		}
		want, _, err := backend.SearchBatch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		var got BatchResponse
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search/batch", "t1-key", BatchRequest{Queries: reqs}, &got); code != 200 {
			t.Fatalf("HTTP %d", code)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("batch returned %d result lists, want %d", len(got.Results), len(want))
		}
		for i := range want {
			assertSameResults(t, got.Results[i], want[i])
		}
	})
}

func assertSameResults(t *testing.T, got []SearchResult, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: got id=%d dist=%v, want id=%d dist=%v",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
		if len(got[i].Vec) != len(want[i].Object.Vec) {
			t.Fatalf("result %d: vector length %d, want %d", i, len(got[i].Vec), len(want[i].Object.Vec))
		}
		for d := range want[i].Object.Vec {
			if got[i].Vec[d] != want[i].Object.Vec[d] {
				t.Fatalf("result %d dim %d: %v != %v", i, d, got[i].Vec[d], want[i].Object.Vec[d])
			}
		}
	}
}

func TestGatewayAuth(t *testing.T) {
	leaktest.Check(t)
	srv, _ := demoGateway(t, Admission{})
	req := SearchRequest{Kind: "knn", Vec: queryVec(6, 0), K: 1}

	var errResp ErrorResponse
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "", req, &errResp); code != 401 {
		t.Fatalf("no key: HTTP %d, want 401", code)
	}
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "wrong", req, &errResp); code != 401 {
		t.Fatalf("wrong key: HTTP %d, want 401", code)
	}
	// Bearer form works too.
	blob, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
	hreq.Header.Set("Authorization", "Bearer t1-key")
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bearer key: HTTP %d, want 200", resp.StatusCode)
	}
}

func TestGatewayRejectsMalformed(t *testing.T) {
	leaktest.Check(t)
	srv, _ := demoGateway(t, Admission{})
	for name, body := range map[string]any{
		"bad kind":  SearchRequest{Kind: "wat", Vec: queryVec(6, 0)},
		"bad query": SearchRequest{Kind: "knn", Vec: queryVec(6, 0), K: -2},
		"no vector": SearchRequest{Kind: "knn", K: 3},
	} {
		var errResp ErrorResponse
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", body, &errResp); code != 400 {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
		if errResp.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

// TestGatewayRejectsOversizedBody: a body over maxBodyBytes is answered
// 413 on both query routes, before it is decoded, and the gateway keeps
// serving.
func TestGatewayRejectsOversizedBody(t *testing.T) {
	leaktest.Check(t)
	srv, _ := demoGateway(t, Admission{})
	// Leading whitespace is valid JSON, so the decoder reads on to the cap.
	body := strings.Repeat(" ", maxBodyBytes) + `{"kind":"knn","vec":[0,1,2,3,4,5],"k":3}`
	for _, route := range []string{"/v1/search", "/v1/search/batch"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+route, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "t1-key")
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var errResp ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&errResp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(errResp.Error, "request body over") {
			t.Errorf("%s: HTTP %d %q (%v), want 413 naming the cap", route, resp.StatusCode, errResp.Error, err)
		}
	}
	var results SearchResponse
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", SearchRequest{Kind: "knn", Vec: queryVec(6, 0), K: 3}, &results); code != 200 {
		t.Fatalf("query after the oversized bodies: HTTP %d", code)
	}
}

// blockingSearcher is a fake backend whose searches park until released —
// the saturation tests hold the gateway at an exact inflight level with it.
type blockingSearcher struct {
	mu          sync.Mutex
	gate        chan struct{}
	releaseOnce sync.Once
	started     chan struct{} // one tick per search that has entered
	cands       []int         // CandSize of every query served
}

func newBlockingSearcher() *blockingSearcher {
	return &blockingSearcher{gate: make(chan struct{}), started: make(chan struct{}, 1024)}
}

// release unparks every current and future search (idempotent).
func (b *blockingSearcher) release() { b.releaseOnce.Do(func() { close(b.gate) }) }

func (b *blockingSearcher) Search(ctx context.Context, q core.Query) ([]core.Result, stats.Costs, error) {
	b.mu.Lock()
	b.cands = append(b.cands, q.CandSize)
	b.mu.Unlock()
	b.started <- struct{}{}
	select {
	case <-b.gate:
	case <-ctx.Done():
	}
	return nil, stats.Costs{}, nil
}

func (b *blockingSearcher) SearchBatch(ctx context.Context, qs []core.Query) ([][]core.Result, stats.Costs, error) {
	out := make([][]core.Result, len(qs))
	for range qs {
		b.started <- struct{}{}
	}
	select {
	case <-b.gate:
	case <-ctx.Done():
	}
	return out, stats.Costs{}, nil
}

func (b *blockingSearcher) Close() error { return nil }

func (b *blockingSearcher) candSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.cands...)
}

func blockingGateway(t *testing.T, adm Admission, tenants ...string) (*httptest.Server, *blockingSearcher) {
	t.Helper()
	backend := newBlockingSearcher()
	var ts []Tenant
	for _, name := range tenants {
		ts = append(ts, Tenant{Name: name, Key: name + "-key", Backend: backend})
	}
	gw, err := New(Config{Tenants: ts, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(func() { backend.release(); srv.Close() })
	return srv, backend
}

// TestSaturationRefusal: past the hard inflight cap the gateway answers 429
// with a Retry-After hint, and releases capacity cleanly afterwards.
func TestSaturationRefusal(t *testing.T) {
	leaktest.Check(t)
	const cap = 4
	srv, backend := blockingGateway(t, Admission{MaxInflight: cap, ShedStart: 0.999}, "t1")
	req := SearchRequest{Kind: "approx-knn", Vec: queryVec(4, 0), K: 2}
	blob, _ := json.Marshal(req)

	// Park cap requests inside the backend.
	var wg sync.WaitGroup
	for range cap {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
			hreq.Header.Set("X-API-Key", "t1-key")
			resp, err := srv.Client().Do(hreq)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for range cap {
		<-backend.started
	}

	// The cap+1'th request must be refused, not queued.
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
	hreq.Header.Set("X-API-Key", "t1-key")
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gateway answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil || errResp.Error == "" {
		t.Fatalf("429 body: %v %q", err, errResp.Error)
	}
	backend.release()
	wg.Wait()

	// With the parked requests released, service resumes at full fidelity.
	var ok SearchResponse
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", req, &ok); code != 200 {
		t.Fatalf("post-saturation request: HTTP %d, want 200", code)
	}
}

// TestTenantRateIsolation: tenant A exhausting its token bucket is refused
// with 429 while tenant B's requests keep being served — one tenant's flood
// cannot starve another's quota.
func TestTenantRateIsolation(t *testing.T) {
	leaktest.Check(t)
	srv, backend := blockingGateway(t,
		Admission{TenantQPS: 0.001, TenantBurst: 3}, "a", "b")
	backend.release() // searches return immediately
	req := SearchRequest{Kind: "approx-knn", Vec: queryVec(4, 0), K: 2}

	// A's burst of 3 passes; everything after is rate-refused (refill at
	// 0.001 tokens/s is nothing on the test's time scale).
	for i := range 3 {
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "a-key", req, nil); code != 200 {
			t.Fatalf("tenant a request %d: HTTP %d, want 200", i, code)
		}
	}
	refused := 0
	for range 5 {
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "a-key", req, nil); code == http.StatusTooManyRequests {
			refused++
		}
	}
	if refused != 5 {
		t.Fatalf("flooding tenant a: %d/5 refusals, want 5", refused)
	}

	// B's bucket is untouched by A's flood.
	for i := range 3 {
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "b-key", req, nil); code != 200 {
			t.Fatalf("tenant b request %d after a's flood: HTTP %d, want 200", i, code)
		}
	}
}

// TestShedDegradesBeforeRefusal drives inflight load through the shedding
// band and checks the ladder's ordering: full fidelity at low load, reduced
// CandSize (reported as degraded, never below K) as load grows, and 429
// only past the hard cap.
func TestShedDegradesBeforeRefusal(t *testing.T) {
	leaktest.Check(t)
	const cap = 8
	srv, backend := blockingGateway(t, Admission{MaxInflight: cap, ShedStart: 0.25}, "t1")
	const candFull = 100
	req := SearchRequest{Kind: "approx-knn", Vec: queryVec(4, 0), K: 2, CandSize: candFull}
	blob, _ := json.Marshal(req)

	responses := make(chan *http.Response, cap)
	var wg sync.WaitGroup
	for range cap {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
			hreq.Header.Set("X-API-Key", "t1-key")
			resp, err := srv.Client().Do(hreq)
			if err == nil {
				responses <- resp
			}
		}()
		<-backend.started // serialize: each request enters before the next is sent
	}

	// All cap requests were admitted (shedding, never refusing, below the
	// cap) and the ones above the shed threshold ran with a smaller
	// CandSize, floored at K.
	cands := backend.candSizes()
	if len(cands) != cap {
		t.Fatalf("backend served %d queries, want %d", len(cands), cap)
	}
	if cands[0] != candFull {
		t.Fatalf("first query CandSize %d, want the full %d", cands[0], candFull)
	}
	last := cands[cap-1]
	if last >= candFull {
		t.Fatalf("query at the cap ran at CandSize %d, want < %d", last, candFull)
	}
	if last < req.K {
		t.Fatalf("shed CandSize %d fell below K=%d", last, req.K)
	}
	for i := 1; i < cap; i++ {
		if cands[i] > cands[i-1] {
			t.Fatalf("CandSize grew under rising load: %v", cands)
		}
	}

	// Past the cap: refusal.
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
	hreq.Header.Set("X-API-Key", "t1-key")
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past-cap request answered %d, want 429", resp.StatusCode)
	}

	backend.release()
	wg.Wait()
	close(responses)
	degraded := 0
	for resp := range responses {
		var sr SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sr.Degraded {
			degraded++
			if sr.CandSize >= candFull {
				t.Fatalf("degraded response reports CandSize %d >= %d", sr.CandSize, candFull)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no response reported degradation despite shed CandSizes")
	}
}

// TestMetricsEndpoint scrapes /metrics after a known request mix and checks
// the counters add up and render in Prometheus text shape.
func TestMetricsEndpoint(t *testing.T) {
	leaktest.Check(t)
	srv, _ := demoGateway(t, Admission{})
	req := SearchRequest{Kind: "approx-knn", Vec: queryVec(6, 2), K: 3}
	for range 5 {
		if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", req, nil); code != 200 {
			t.Fatalf("HTTP %d", code)
		}
	}
	postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", SearchRequest{Kind: "wat"}, nil)

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		`simgate_requests_total{tenant="t1",code="200"} 5`,
		`simgate_requests_total{tenant="t1",code="400"} 1`,
		`simgate_queries_total{tenant="t1"} 5`,
		`simgate_request_seconds_count 5`,
		`simgate_engine_live{tenant="t1"} 800`,
		`simgate_ingest_entries_total{tenant="t1"} 800`,
		"# TYPE simgate_request_seconds histogram",
		`simgate_request_seconds_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Every sample line parses as "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable metrics line %q", line)
		}
	}
}

// TestStatsEndpoint checks /v1/stats serves the unified core.Stats shape.
func TestStatsEndpoint(t *testing.T) {
	leaktest.Check(t)
	srv, _ := demoGateway(t, Admission{})
	hreq, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	hreq.Header.Set("X-API-Key", "t1-key")
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var body struct {
		Tenant  string     `json:"tenant"`
		Backend core.Stats `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "t1" {
		t.Fatalf("tenant %q, want t1", body.Tenant)
	}
	if body.Backend.Engine.Live != 800 {
		t.Fatalf("engine live %d, want 800", body.Backend.Engine.Live)
	}
}

// TestShedFactorBands pins the discrete shedding ladder with defaults:
// 1 → 0.75 → 0.5 → 0.25 as inflight load crosses the three bands.
func TestShedFactorBands(t *testing.T) {
	leaktest.Check(t)
	a := newAdmission(Admission{MaxInflight: 100})
	for _, tc := range []struct {
		inflight int64
		want     float64
	}{
		{1, 1}, {50, 1}, {51, 0.75}, {66, 0.75}, {67, 0.5}, {83, 0.5}, {84, 0.25}, {100, 0.25},
	} {
		if got := a.shedFactor(tc.inflight); got != tc.want {
			t.Errorf("shedFactor(%d) = %v, want %v", tc.inflight, got, tc.want)
		}
	}
}

// TestTokenBucket pins refill arithmetic and the Retry-After computation.
func TestTokenBucket(t *testing.T) {
	leaktest.Check(t)
	now := time.Unix(1000, 0)
	b := newTokenBucket(10, 5) // 10 tokens/s, burst 5

	for i := range 5 {
		if ok, _ := b.take(now, 1); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, wait := b.take(now, 1)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait != 100*time.Millisecond {
		t.Fatalf("wait %v, want 100ms (1 token at 10/s)", wait)
	}
	// After 200ms two tokens refilled.
	now = now.Add(200 * time.Millisecond)
	if ok, _ := b.take(now, 2); !ok {
		t.Fatal("refilled tokens not granted")
	}
	if ok, _ := b.take(now, 1); ok {
		t.Fatal("bucket over-refilled")
	}
	// A nil bucket (unlimited) always admits.
	var unlimited *tokenBucket
	if ok, _ := unlimited.take(now, 1e9); !ok {
		t.Fatal("unlimited bucket refused")
	}
}

// TestBatchCostsPerQueryTokens: a batch of n queries spends n tokens.
func TestBatchCostsPerQueryTokens(t *testing.T) {
	leaktest.Check(t)
	srv, backend := blockingGateway(t, Admission{TenantQPS: 0.001, TenantBurst: 4}, "t1")
	backend.release()
	vec := queryVec(4, 0)
	batch := BatchRequest{Queries: []SearchRequest{
		{Kind: "approx-knn", Vec: vec, K: 1},
		{Kind: "approx-knn", Vec: vec, K: 1},
		{Kind: "approx-knn", Vec: vec, K: 1},
	}}
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search/batch", "t1-key", batch, nil); code != 200 {
		t.Fatalf("first batch: HTTP %d, want 200", code)
	}
	// 1 token left of 4: a 3-query batch no longer fits.
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search/batch", "t1-key", batch, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second batch: HTTP %d, want 429", code)
	}
	// ...but a single query does.
	single := SearchRequest{Kind: "approx-knn", Vec: vec, K: 1}
	if code := postJSON(t, srv.Client(), srv.URL+"/v1/search", "t1-key", single, nil); code != 200 {
		t.Fatalf("single query after batch: HTTP %d, want 200", code)
	}
}

// TestConfigValidation pins the constructor's rejection of bad configs.
func TestConfigValidation(t *testing.T) {
	leaktest.Check(t)
	backend := newBlockingSearcher()
	for name, cfg := range map[string]Config{
		"no tenants": {},
		"no name":    {Tenants: []Tenant{{Key: "k", Backend: backend}}},
		"no key":     {Tenants: []Tenant{{Name: "a", Backend: backend}}},
		"no backend": {Tenants: []Tenant{{Name: "a", Key: "k"}}},
		"dup name": {Tenants: []Tenant{
			{Name: "a", Key: "k1", Backend: backend}, {Name: "a", Key: "k2", Backend: backend}}},
		"dup key": {Tenants: []Tenant{
			{Name: "a", Key: "k", Backend: backend}, {Name: "b", Key: "k", Backend: backend}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}

// TestConcurrentMixedLoad hammers one gateway from many goroutines under
// the race detector: successes, rate refusals and shed responses may all
// happen, but counters must balance and nothing may fall through as an
// unexpected status.
func TestConcurrentMixedLoad(t *testing.T) {
	leaktest.Check(t)
	tenant, err := DemoTenant("t1", "t1-key", 7, 400, 6, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Tenants:   []Tenant{tenant},
		Admission: Admission{MaxInflight: 8, TenantQPS: 1000, TenantBurst: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer func() { srv.Close(); gw.Close() }()

	req := SearchRequest{Kind: "approx-knn", Vec: queryVec(6, 1), K: 3}
	blob, _ := json.Marshal(req)
	var wg sync.WaitGroup
	var unexpected stats.Counter
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(blob))
				hreq.Header.Set("X-API-Key", "t1-key")
				resp, err := srv.Client().Do(hreq)
				if err != nil {
					unexpected.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 && resp.StatusCode != 429 {
					unexpected.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := unexpected.Value(); n > 0 {
		t.Fatalf("%d requests failed with neither 200 nor 429", n)
	}

	// The request counters must account for all 320 requests.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob2, _ := io.ReadAll(resp.Body)
	var total int64
	for _, line := range strings.Split(string(blob2), "\n") {
		if strings.HasPrefix(line, "simgate_requests_total{") {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err == nil {
				total += v
			}
		}
	}
	if total != 16*20 {
		t.Fatalf("request counters sum to %d, want %d", total, 16*20)
	}
}

// fixedSearcher is a fake backend that answers every query with the same
// results.
type fixedSearcher struct{ res []core.Result }

func (f fixedSearcher) Search(context.Context, core.Query) ([]core.Result, stats.Costs, error) {
	return f.res, stats.Costs{}, nil
}

func (f fixedSearcher) SearchBatch(_ context.Context, qs []core.Query) ([][]core.Result, stats.Costs, error) {
	out := make([][]core.Result, len(qs))
	for i := range out {
		out[i] = f.res
	}
	return out, stats.Costs{}, nil
}

func (f fixedSearcher) Close() error { return nil }

// TestAnswerThatDoesNotEncode: an answer JSON cannot carry — an infinite or
// NaN distance — is a 500 with an ErrorResponse body for a search and for a
// batch, not a 200 with an empty body; an answer that encodes is sent with
// its Content-Length.
func TestAnswerThatDoesNotEncode(t *testing.T) {
	leaktest.Check(t)
	for name, dist := range map[string]float64{"inf": math.Inf(1), "nan": math.NaN(), "finite": 1.5} {
		t.Run(name, func(t *testing.T) {
			backend := fixedSearcher{res: []core.Result{{ID: 3, Dist: dist}}}
			gw, err := New(Config{Tenants: []Tenant{{Name: "t1", Key: "t1-key", Backend: backend}}})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(gw)
			defer srv.Close()
			q := SearchRequest{Kind: "approx-knn", Vec: queryVec(4, 0), K: 1}
			for path, body := range map[string]any{"/v1/search": q, "/v1/search/batch": BatchRequest{Queries: []SearchRequest{q}}} {
				blob, _ := json.Marshal(body)
				req, _ := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(blob))
				req.Header.Set("X-API-Key", "t1-key")
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.ContentLength != int64(len(raw)) {
					t.Fatalf("%s: Content-Length %d for a %d B body", path, resp.ContentLength, len(raw))
				}
				if name == "finite" {
					if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"dist":1.5`) {
						t.Fatalf("%s: HTTP %d %s", path, resp.StatusCode, raw)
					}
					continue
				}
				var e ErrorResponse
				if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(raw, &e) != nil || !strings.Contains(e.Error, "unsupported value") {
					t.Fatalf("%s: HTTP %d %q, want 500 with an ErrorResponse naming the value", path, resp.StatusCode, raw)
				}
			}
		})
	}
}

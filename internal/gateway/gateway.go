package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"simcloud/internal/core"
)

// Tenant declares one tenant of the gateway: a display name (used in
// metrics labels and logs — never secret), the API key requests must
// present, and the tenant's own Searcher backend. The backend carries the
// tenant's secret key, so isolation is structural: a request can only ever
// reach the backend its API key maps to.
type Tenant struct {
	Name    string
	Key     string
	Backend core.Searcher
}

// Config assembles a Gateway.
type Config struct {
	Tenants   []Tenant
	Admission Admission
}

// tenant is the runtime state per tenant: the backend, the tenant's token
// bucket, and its metric counters.
type tenant struct {
	name    string
	backend core.Searcher
	bucket  *tokenBucket
	metrics tenantMetrics
}

// Gateway is the HTTP front end. It implements http.Handler; serve it with
// any http.Server. Routes:
//
//	POST /v1/search        one query            (auth required)
//	POST /v1/search/batch  many queries         (auth required)
//	GET  /v1/stats         unified stats, JSON  (auth required; own tenant)
//	GET  /metrics          Prometheus text      (open)
//	GET  /healthz          liveness             (open)
type Gateway struct {
	adm           *admission
	metrics       *metrics
	tenantsByKey  map[string]*tenant
	tenantsByName map[string]*tenant
	mux           *http.ServeMux
}

// New builds a Gateway from cfg. Tenant names and keys must be non-empty
// and unique.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("gateway: no tenants configured")
	}
	adm := newAdmission(cfg.Admission)
	g := &Gateway{
		adm:           adm,
		metrics:       newMetrics(),
		tenantsByKey:  make(map[string]*tenant, len(cfg.Tenants)),
		tenantsByName: make(map[string]*tenant, len(cfg.Tenants)),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || tc.Key == "" {
			return nil, fmt.Errorf("gateway: tenant needs both a name and a key (got name=%q)", tc.Name)
		}
		if tc.Backend == nil {
			return nil, fmt.Errorf("gateway: tenant %q has no backend", tc.Name)
		}
		if _, dup := g.tenantsByName[tc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", tc.Name)
		}
		if _, dup := g.tenantsByKey[tc.Key]; dup {
			return nil, fmt.Errorf("gateway: duplicate API key (tenant %q)", tc.Name)
		}
		t := &tenant{
			name:    tc.Name,
			backend: tc.Backend,
			bucket:  newTokenBucket(adm.cfg.TenantQPS, adm.cfg.TenantBurst),
		}
		g.tenantsByName[tc.Name] = t
		g.tenantsByKey[tc.Key] = t
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", g.handleSearch)
	mux.HandleFunc("POST /v1/search/batch", g.handleBatch)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux = mux
	return g, nil
}

// ServeHTTP dispatches to the gateway's routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close closes every tenant backend, returning the first error.
func (g *Gateway) Close() error {
	var first error
	for _, t := range g.tenantsByName {
		if err := t.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// authenticate resolves the request's API key (Authorization: Bearer or
// X-API-Key) to its tenant. Unknown and missing keys are indistinguishable
// to the caller — both 401.
func (g *Gateway) authenticate(r *http.Request) *tenant {
	key := r.Header.Get("X-API-Key")
	if auth := r.Header.Get("Authorization"); key == "" && strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	}
	if key == "" {
		return nil
	}
	return g.tenantsByKey[key]
}

// jsonBufs recycles the buffers answers are encoded into.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v and sends it with the given status in one write, its
// Content-Length set, and records the code on the tenant's counters (t may
// be nil before authentication succeeded). The status goes out only once
// the answer has encoded: one that does not — a NaN or infinite distance —
// is answered 500 with an ErrorResponse, never 200 with an empty body.
func (g *Gateway) writeJSON(w http.ResponseWriter, t *tenant, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			jsonBufs.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(ErrorResponse{Error: "encoding the answer: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	if t != nil {
		t.metrics.codes[codeSlot(code)].Add(1)
	}
}

// maxPooledJSON is the largest answer buffer kept for reuse; a rare huge
// answer's buffer is left to the collector.
const maxPooledJSON = 1 << 20

func (g *Gateway) writeError(w http.ResponseWriter, t *tenant, code int, msg string) {
	g.writeJSON(w, t, code, ErrorResponse{Error: msg})
}

// retryAfterSeconds renders a wait as the integer-seconds Retry-After
// header value, rounding up so a client that honors it is never early.
func retryAfterSeconds(wait time.Duration) string {
	return fmt.Sprint(int(math.Ceil(wait.Seconds())))
}

// admit runs the ladder for a request costing n queries: the tenant's
// token bucket first (flood isolation), then the server-wide inflight
// gate. On admission it returns the release closure and the shed factor;
// on refusal it has already written the 429.
func (g *Gateway) admit(w http.ResponseWriter, t *tenant, n int) (release func(), shed float64, ok bool) {
	if ok, wait := t.bucket.take(time.Now(), float64(n)); !ok {
		t.metrics.rejectedRate.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		g.writeError(w, t, http.StatusTooManyRequests, "tenant rate limit exceeded")
		return nil, 0, false
	}
	release, shed, ok = g.adm.acquire()
	if !ok {
		t.metrics.rejectedLoad.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(g.adm.cfg.RetryAfter))
		g.writeError(w, t, http.StatusTooManyRequests, "server at capacity")
		return nil, 0, false
	}
	return release, shed, true
}

// shedQuery applies the shed factor to one query: the approximate kinds
// get their CandSize (explicit or default) scaled down, floored at K so an
// answer always has K candidates to choose from. Range queries pass
// through untouched — their cost is radius-driven and their contract is
// exactness. It reports the effective CandSize and whether it degraded.
func shedQuery(q core.Query, shed float64) (core.Query, int, bool) {
	if shed >= 1 || (q.Kind != core.KindApproxKNN && q.Kind != core.KindKNN) {
		return q, q.CandSize, false
	}
	cand := q.CandSize
	if cand == 0 {
		cand = core.DefaultCandSize(q.K)
	}
	scaled := max(int(float64(cand)*shed), q.K)
	if scaled >= cand {
		return q, cand, false
	}
	q.CandSize = scaled
	return q, scaled, true
}

// maxBodyBytes caps a request body, and with it the size of a batch. A
// query of 280 CoPhIR dimensions is about 1.1 KB of JSON, so the cap holds
// a batch of about 3 800 of them. No client in this repository sends more
// than four queries in a batch (the gateway's own tests); simbench's open
// loop and the benchmark post single queries to /v1/search.
const maxBodyBytes = 4 << 20

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v. On
// failure it answers the request — 413 for a body over the cap, 400 for a
// malformed one — and returns false.
func (g *Gateway) decodeBody(w http.ResponseWriter, r *http.Request, t *tenant, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		g.writeError(w, t, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
	default:
		g.writeError(w, t, http.StatusBadRequest, "malformed JSON: "+err.Error())
	}
	return false
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	t := g.authenticate(r)
	if t == nil {
		g.writeError(w, nil, http.StatusUnauthorized, "missing or unknown API key")
		return
	}
	var req SearchRequest
	if !g.decodeBody(w, r, t, &req) {
		return
	}
	q, err := req.toQuery()
	if err != nil {
		g.writeError(w, t, http.StatusBadRequest, err.Error())
		return
	}
	release, shed, ok := g.admit(w, t, 1)
	if !ok {
		return
	}
	defer release()

	q, cand, degraded := shedQuery(q, shed)
	start := time.Now()
	results, _, err := t.backend.Search(r.Context(), q)
	if err != nil {
		// Backend validation errors (bad K, bad radius, wrong dimension)
		// are the client's fault; anything else is the server's.
		code := http.StatusInternalServerError
		if core.IsQueryError(err) {
			code = http.StatusBadRequest
		}
		g.writeError(w, t, code, err.Error())
		return
	}
	g.metrics.latency.Observe(time.Since(start))
	t.metrics.queries.Add(1)
	if degraded {
		t.metrics.shed.Add(1)
	}
	g.writeJSON(w, t, http.StatusOK, SearchResponse{
		Results:  fromResults(results),
		CandSize: cand,
		Degraded: degraded,
	})
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	t := g.authenticate(r)
	if t == nil {
		g.writeError(w, nil, http.StatusUnauthorized, "missing or unknown API key")
		return
	}
	var req BatchRequest
	if !g.decodeBody(w, r, t, &req) {
		return
	}
	if len(req.Queries) == 0 {
		g.writeError(w, t, http.StatusBadRequest, "empty batch")
		return
	}
	qs := make([]core.Query, len(req.Queries))
	for i, sr := range req.Queries {
		q, err := sr.toQuery()
		if err != nil {
			g.writeError(w, t, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		qs[i] = q
	}
	// A batch costs one token per query, and one admission slot — the
	// backend pipelines it over one connection, so inflight counts
	// connections' worth of work, not queries.
	release, shed, ok := g.admit(w, t, len(qs))
	if !ok {
		return
	}
	defer release()

	degraded := false
	for i := range qs {
		var d bool
		qs[i], _, d = shedQuery(qs[i], shed)
		degraded = degraded || d
	}
	start := time.Now()
	results, _, err := t.backend.SearchBatch(r.Context(), qs)
	if err != nil {
		code := http.StatusInternalServerError
		if core.IsQueryError(err) {
			code = http.StatusBadRequest
		}
		g.writeError(w, t, code, err.Error())
		return
	}
	g.metrics.latency.Observe(time.Since(start))
	t.metrics.queries.Add(int64(len(qs)))
	if degraded {
		t.metrics.shed.Add(1)
	}
	out := make([][]SearchResult, len(results))
	for i, rs := range results {
		out[i] = fromResults(rs)
	}
	g.writeJSON(w, t, http.StatusOK, BatchResponse{Results: out, Degraded: degraded})
}

// statsResponse is the JSON body of GET /v1/stats: the calling tenant's
// unified backend stats plus the gateway's admission snapshot.
type statsResponse struct {
	Tenant   string     `json:"tenant"`
	Backend  core.Stats `json:"backend"`
	Inflight int64      `json:"inflight"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	t := g.authenticate(r)
	if t == nil {
		g.writeError(w, nil, http.StatusUnauthorized, "missing or unknown API key")
		return
	}
	g.writeJSON(w, t, http.StatusOK, statsResponse{
		Tenant:   t.name,
		Backend:  core.CollectStats(t.backend),
		Inflight: g.adm.Inflight(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.writePrometheus(w)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

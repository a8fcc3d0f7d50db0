package gateway

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/stats"
)

// tenantMetrics is one tenant's request accounting. Counters are
// stats.Counter (atomic), so the serving path never takes a lock to count.
type tenantMetrics struct {
	codes        [6]stats.Counter // indexed by codeSlot: 200,400,401,429,500,other
	queries      stats.Counter    // individual queries served (batch members count)
	shed         stats.Counter    // requests served with a degraded CandSize
	rejectedLoad stats.Counter    // 429s from the max-inflight gate
	rejectedRate stats.Counter    // 429s from the tenant token bucket
}

var codeSlots = [...]int{200, 400, 401, 429, 500}

func codeSlot(code int) int {
	for i, c := range codeSlots {
		if c == code {
			return i
		}
	}
	return len(codeSlots) // "other"
}

func codeName(slot int) string {
	if slot < len(codeSlots) {
		return fmt.Sprint(codeSlots[slot])
	}
	return "other"
}

// metrics is the gateway-wide registry: per-tenant counters plus one
// latency histogram over served (non-rejected) requests.
type metrics struct {
	start   time.Time
	latency *stats.Histogram
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), latency: stats.NewHistogram(nil)}
}

// writePrometheus renders the whole metrics surface in the Prometheus text
// exposition format: the gateway's own counters and histogram, then the
// unified per-backend stats (engine population, cache, lease pool) from
// core.CollectStats, labeled by tenant.
func (g *Gateway) writePrometheus(w io.Writer) {
	m := g.metrics
	names := g.tenantNames()

	fmt.Fprintf(w, "# HELP simgate_uptime_seconds Seconds since the gateway started.\n")
	fmt.Fprintf(w, "# TYPE simgate_uptime_seconds gauge\n")
	fmt.Fprintf(w, "simgate_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP simgate_inflight Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE simgate_inflight gauge\n")
	fmt.Fprintf(w, "simgate_inflight %d\n", g.adm.Inflight())

	fmt.Fprintf(w, "# HELP simgate_max_inflight The admission hard cap.\n")
	fmt.Fprintf(w, "# TYPE simgate_max_inflight gauge\n")
	fmt.Fprintf(w, "simgate_max_inflight %d\n", g.adm.cfg.MaxInflight)

	fmt.Fprintf(w, "# HELP simgate_requests_total HTTP requests by tenant and status code.\n")
	fmt.Fprintf(w, "# TYPE simgate_requests_total counter\n")
	for _, name := range names {
		t := g.tenantsByName[name]
		for slot := range t.metrics.codes {
			if v := t.metrics.codes[slot].Value(); v > 0 {
				fmt.Fprintf(w, "simgate_requests_total{tenant=%q,code=%q} %d\n", name, codeName(slot), v)
			}
		}
	}

	fmt.Fprintf(w, "# HELP simgate_queries_total Queries served (batch members counted individually).\n")
	fmt.Fprintf(w, "# TYPE simgate_queries_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "simgate_queries_total{tenant=%q} %d\n", name, g.tenantsByName[name].metrics.queries.Value())
	}

	fmt.Fprintf(w, "# HELP simgate_shed_total Requests served with a load-shed (degraded) CandSize.\n")
	fmt.Fprintf(w, "# TYPE simgate_shed_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "simgate_shed_total{tenant=%q} %d\n", name, g.tenantsByName[name].metrics.shed.Value())
	}

	fmt.Fprintf(w, "# HELP simgate_rejected_total Requests refused with 429, by reason.\n")
	fmt.Fprintf(w, "# TYPE simgate_rejected_total counter\n")
	for _, name := range names {
		t := g.tenantsByName[name]
		fmt.Fprintf(w, "simgate_rejected_total{tenant=%q,reason=\"inflight\"} %d\n", name, t.metrics.rejectedLoad.Value())
		fmt.Fprintf(w, "simgate_rejected_total{tenant=%q,reason=\"rate\"} %d\n", name, t.metrics.rejectedRate.Value())
	}

	// The request latency histogram, Prometheus-style: cumulative buckets
	// with `le` bounds in seconds, then _sum and _count.
	fmt.Fprintf(w, "# HELP simgate_request_seconds Latency of served (non-rejected) requests.\n")
	fmt.Fprintf(w, "# TYPE simgate_request_seconds histogram\n")
	for _, b := range m.latency.Buckets() {
		fmt.Fprintf(w, "simgate_request_seconds_bucket{le=%q} %d\n", formatSeconds(b.UpperBound), b.Count)
	}
	fmt.Fprintf(w, "simgate_request_seconds_bucket{le=\"+Inf\"} %d\n", m.latency.Count())
	fmt.Fprintf(w, "simgate_request_seconds_sum %g\n", m.latency.Sum().Seconds())
	fmt.Fprintf(w, "simgate_request_seconds_count %d\n", m.latency.Count())

	// Unified backend stats per tenant: engine population (per shard),
	// cache hit rate inputs, lease-pool depth — whatever the tenant's
	// backend can report through the one CollectStats surface.
	writeBackendHeader(w)
	for _, name := range names {
		writeBackendStats(w, name, core.CollectStats(g.tenantsByName[name].backend))
	}
}

func writeBackendHeader(w io.Writer) {
	fmt.Fprintf(w, "# HELP simgate_engine_live Live entries in the tenant backend's engine.\n")
	fmt.Fprintf(w, "# TYPE simgate_engine_live gauge\n")
	fmt.Fprintf(w, "# HELP simgate_engine_dead Tombstoned entries awaiting compaction.\n")
	fmt.Fprintf(w, "# TYPE simgate_engine_dead gauge\n")
	fmt.Fprintf(w, "# HELP simgate_shard_live Live entries per shard.\n")
	fmt.Fprintf(w, "# TYPE simgate_shard_live gauge\n")
	fmt.Fprintf(w, "# HELP simgate_shard_dead Tombstoned entries per shard.\n")
	fmt.Fprintf(w, "# TYPE simgate_shard_dead gauge\n")
	fmt.Fprintf(w, "# HELP simgate_cache_hits_total Disk bucket-cache hits.\n")
	fmt.Fprintf(w, "# TYPE simgate_cache_hits_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_cache_misses_total Disk bucket-cache misses.\n")
	fmt.Fprintf(w, "# TYPE simgate_cache_misses_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_ingest_entries_total Entries accepted by the backend's insert paths.\n")
	fmt.Fprintf(w, "# TYPE simgate_ingest_entries_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_ingest_builds_total Insert batches applied, one per shard a batch reaches.\n")
	fmt.Fprintf(w, "# TYPE simgate_ingest_builds_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_ingest_bytes_total Encoded bytes of accepted entries.\n")
	fmt.Fprintf(w, "# TYPE simgate_ingest_bytes_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_pool_idle Idle connections in the tenant's lease pool.\n")
	fmt.Fprintf(w, "# TYPE simgate_pool_idle gauge\n")
	fmt.Fprintf(w, "# HELP simgate_pool_leased Leased (in-flight) connections in the tenant's lease pool.\n")
	fmt.Fprintf(w, "# TYPE simgate_pool_leased gauge\n")
	fmt.Fprintf(w, "# HELP simgate_pool_dialed_total Connections ever dialed by the tenant's lease pool.\n")
	fmt.Fprintf(w, "# TYPE simgate_pool_dialed_total counter\n")
	fmt.Fprintf(w, "# HELP simgate_pool_discarded_total Connections discarded as broken.\n")
	fmt.Fprintf(w, "# TYPE simgate_pool_discarded_total counter\n")
}

func writeBackendStats(w io.Writer, name string, s core.Stats) {
	fmt.Fprintf(w, "simgate_engine_live{tenant=%q} %d\n", name, s.Engine.Live)
	fmt.Fprintf(w, "simgate_engine_dead{tenant=%q} %d\n", name, s.Engine.Dead)
	for i := range s.Engine.ShardLive {
		fmt.Fprintf(w, "simgate_shard_live{tenant=%q,shard=\"%d\"} %d\n", name, i, s.Engine.ShardLive[i])
		fmt.Fprintf(w, "simgate_shard_dead{tenant=%q,shard=\"%d\"} %d\n", name, i, s.Engine.ShardDead[i])
	}
	fmt.Fprintf(w, "simgate_cache_hits_total{tenant=%q} %d\n", name, s.Cache.Hits)
	fmt.Fprintf(w, "simgate_cache_misses_total{tenant=%q} %d\n", name, s.Cache.Misses)
	fmt.Fprintf(w, "simgate_ingest_entries_total{tenant=%q} %d\n", name, s.Ingest.Entries)
	fmt.Fprintf(w, "simgate_ingest_builds_total{tenant=%q} %d\n", name, s.Ingest.Builds)
	fmt.Fprintf(w, "simgate_ingest_bytes_total{tenant=%q} %d\n", name, s.Ingest.Bytes)
	fmt.Fprintf(w, "simgate_pool_idle{tenant=%q} %d\n", name, s.Pool.Idle)
	fmt.Fprintf(w, "simgate_pool_leased{tenant=%q} %d\n", name, s.Pool.Leased)
	fmt.Fprintf(w, "simgate_pool_dialed_total{tenant=%q} %d\n", name, s.Pool.Dialed)
	fmt.Fprintf(w, "simgate_pool_discarded_total{tenant=%q} %d\n", name, s.Pool.Discarded)
}

// formatSeconds renders a duration bound as a seconds value with no
// trailing zeros (Prometheus `le` label convention).
func formatSeconds(d time.Duration) string {
	s := fmt.Sprintf("%g", d.Seconds())
	return strings.TrimSuffix(s, ".0")
}

// tenantNames returns the tenant names in stable (sorted) order, so
// successive scrapes render metrics in a deterministic layout.
func (g *Gateway) tenantNames() []string {
	names := make([]string, 0, len(g.tenantsByName))
	for name := range g.tenantsByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

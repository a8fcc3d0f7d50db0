package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// HistoryRow is one line of a bench/history file, the one shape the tools
// write: cmd/benchab's A/B series and `go test -bench` runs, and simbench
// -openloop -json's report.
type HistoryRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra"`
}

// WriteHistory writes rs as an indented JSON list, as history files hold.
func WriteHistory(w io.Writer, rs []HistoryRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rs)
}

// Rows renders the open-loop report as history rows, one per figure, named
// OpenLoop/qps=<offered>/conns=<n>/<figure>: offered and achieved rates, the
// outcome counts, and the latency percentiles in milliseconds.
func (r *OpenLoopReport) Rows() []HistoryRow {
	name := fmt.Sprintf("OpenLoop/qps=%.0f/conns=%d/", r.OfferedQPS, r.Conns)
	extra := fmt.Sprintf("open loop against %s for %s; %s/%s", r.Target, r.Duration.Round(time.Millisecond), runtime.GOOS, runtime.GOARCH)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var out []HistoryRow
	for _, f := range []struct {
		name, unit string
		v          float64
	}{
		{"offered_qps", "q/s", r.OfferedQPS},
		{"achieved_qps", "q/s", r.Achieved},
		{"sent", "count", float64(r.Sent)},
		{"ok", "count", float64(r.OK)},
		{"rejected", "count", float64(r.Rejected)},
		{"errors", "count", float64(r.Errors)},
		{"degraded", "count", float64(r.Degraded)},
		{"p50_ms", "ms", ms(r.P50)},
		{"p99_ms", "ms", ms(r.P99)},
		{"p999_ms", "ms", ms(r.P999)},
		{"max_ms", "ms", ms(r.Max)},
		{"elapsed_ms", "ms", ms(r.Duration)},
	} {
		out = append(out, HistoryRow{Name: name + f.name, Value: f.v, Unit: f.unit, Extra: extra})
	}
	return out
}

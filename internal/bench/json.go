package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// The machine-readable open-loop artifact, in the same document shape
// cmd/benchjson emits for `go test -bench` runs (goos/goarch header plus a
// results list of name + iterations + metrics map), so CI uploads both
// kinds of artifact through one downstream pipeline.

// JSONResult is one measurement: a name, how many operations it covers and
// its metrics. Mirrors benchjson's Result.
type JSONResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// JSONDocument is the emitted artifact. Mirrors benchjson's Document.
type JSONDocument struct {
	Goos    string       `json:"goos,omitempty"`
	Goarch  string       `json:"goarch,omitempty"`
	Results []JSONResult `json:"results"`
}

// Write writes the document as indented JSON.
func (d *JSONDocument) Write(w io.Writer) error {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// JSONDocument renders the open-loop report machine-readably: offered and
// achieved rates, the outcome counts, and the latency percentiles in
// milliseconds.
func (r *OpenLoopReport) JSONDocument() *JSONDocument {
	return &JSONDocument{Goos: runtime.GOOS, Goarch: runtime.GOARCH, Results: []JSONResult{{
		Name:       fmt.Sprintf("OpenLoop/qps=%.0f/conns=%d", r.OfferedQPS, r.Conns),
		Iterations: r.Sent,
		Metrics: map[string]float64{
			"offered_qps":  r.OfferedQPS,
			"achieved_qps": r.Achieved,
			"ok":           float64(r.OK),
			"rejected":     float64(r.Rejected),
			"errors":       float64(r.Errors),
			"degraded":     float64(r.Degraded),
			"p50_ms":       ms(r.P50),
			"p99_ms":       ms(r.P99),
			"p999_ms":      ms(r.P999),
			"max_ms":       ms(r.Max),
			"elapsed_ms":   ms(r.Duration),
		},
	}}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

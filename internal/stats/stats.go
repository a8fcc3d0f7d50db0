// Package stats provides the cost-accounting primitives used throughout the
// similarity cloud: wall-clock timers, atomic counters, and the per-operation
// cost breakdown reported in the paper's evaluation (client time, server
// time, communication time, encryption/decryption time, distance-computation
// time, communication cost in bytes, and result recall).
//
// All counters are safe for concurrent use; a Costs value is not (each
// operation owns its Costs until it is published).
package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n.Store(0) }

// Timer accumulates wall-clock durations, safe for concurrent use.
type Timer struct {
	ns atomic.Int64
}

// Add accumulates d into the timer.
func (t *Timer) Add(d time.Duration) { t.ns.Add(int64(d)) }

// Time runs fn and accumulates its wall-clock duration.
func (t *Timer) Time(fn func()) {
	start := time.Now()
	fn()
	t.ns.Add(int64(time.Since(start)))
}

// Value returns the accumulated duration.
func (t *Timer) Value() time.Duration { return time.Duration(t.ns.Load()) }

// Reset sets the accumulated duration back to zero.
func (t *Timer) Reset() { t.ns.Store(0) }

// Costs is the cost decomposition of one client operation (an insert bulk or
// a search), mirroring the measures of the paper's Section 5:
//
//   - ClientTime: total client-side computation (encryption/decryption,
//     distance computations, processing overhead): Overall − ServerTime −
//     CommTime, clamped at zero (Finish).
//   - EncryptTime / DecryptTime: the cipher-related share of ClientTime.
//     DecryptTime includes deserialization of candidate objects, as in the
//     paper.
//   - DistCompTime: client-side metric distance evaluations (object–pivot
//     distances on insert, query–candidate distances on refinement).
//   - ServerTime: time spent inside the server handler, as reported by the
//     server in the response frame.
//   - CommTime: time attributable to client–server communication: the
//     measured wire time of the exchanges minus the server time credited
//     out of it (CreditServer), clamped at zero.
//   - Overall: end-to-end wall-clock time of the operation.
//   - BytesSent / BytesReceived: communication cost on the wire, as seen by
//     the client.
//   - DistComps: number of metric distance computations on the client.
//   - Candidates: size of the candidate set transferred (searches only).
type Costs struct {
	ClientTime   time.Duration
	EncryptTime  time.Duration
	DecryptTime  time.Duration
	DistCompTime time.Duration
	ServerTime   time.Duration
	CommTime     time.Duration
	Overall      time.Duration

	BytesSent     int64
	BytesReceived int64
	DistComps     int64
	Candidates    int64
	RoundTrips    int64
}

// CommBytes returns the total communication cost (both directions).
func (c Costs) CommBytes() int64 { return c.BytesSent + c.BytesReceived }

// CreditServer moves server-reported processing time out of the measured
// wire time: the exchange's clock covered it, but the server spent it.
func (c *Costs) CreditServer(nanos uint64) {
	st := time.Duration(nanos)
	c.ServerTime += st
	c.CommTime = max(c.CommTime-st, 0)
}

// Finish fills Overall from the operation start time and derives ClientTime
// as everything not spent on the wire or in the server — the paper's "data
// encryption/decryption, distance computations, and processing overhead" —
// so overall time is the sum of client, server and communication times.
func (c *Costs) Finish(start time.Time) {
	c.Overall = time.Since(start)
	c.ClientTime = max(c.Overall-c.ServerTime-c.CommTime, 0)
}

// Accumulate adds other's fields into c (used to sum costs over a batch of
// operations before averaging).
func (c *Costs) Accumulate(other Costs) {
	c.ClientTime += other.ClientTime
	c.EncryptTime += other.EncryptTime
	c.DecryptTime += other.DecryptTime
	c.DistCompTime += other.DistCompTime
	c.ServerTime += other.ServerTime
	c.CommTime += other.CommTime
	c.Overall += other.Overall
	c.BytesSent += other.BytesSent
	c.BytesReceived += other.BytesReceived
	c.DistComps += other.DistComps
	c.Candidates += other.Candidates
	c.RoundTrips += other.RoundTrips
}

// DividedBy returns the element-wise average of c over n operations.
// n <= 0 returns c unchanged.
func (c Costs) DividedBy(n int) Costs {
	if n <= 0 {
		return c
	}
	d := int64(n)
	return Costs{
		ClientTime:    c.ClientTime / time.Duration(d),
		EncryptTime:   c.EncryptTime / time.Duration(d),
		DecryptTime:   c.DecryptTime / time.Duration(d),
		DistCompTime:  c.DistCompTime / time.Duration(d),
		ServerTime:    c.ServerTime / time.Duration(d),
		CommTime:      c.CommTime / time.Duration(d),
		Overall:       c.Overall / time.Duration(d),
		BytesSent:     c.BytesSent / d,
		BytesReceived: c.BytesReceived / d,
		DistComps:     c.DistComps / d,
		Candidates:    c.Candidates / d,
		RoundTrips:    c.RoundTrips / d,
	}
}

// String renders a compact single-line summary, useful in logs and examples.
func (c Costs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client=%v (enc=%v dec=%v dist=%v) server=%v comm=%v overall=%v bytes=%d",
		c.ClientTime.Round(time.Microsecond),
		c.EncryptTime.Round(time.Microsecond),
		c.DecryptTime.Round(time.Microsecond),
		c.DistCompTime.Round(time.Microsecond),
		c.ServerTime.Round(time.Microsecond),
		c.CommTime.Round(time.Microsecond),
		c.Overall.Round(time.Microsecond),
		c.CommBytes())
	return b.String()
}

// Recall returns the recall of result against the exact answer in percent,
// as defined in Section 4.1 of the paper: |result ∩ exact| / |exact| · 100.
// An empty exact answer yields 100 (the result trivially covers it).
func Recall(result, exact []uint64) float64 {
	if len(exact) == 0 {
		return 100
	}
	in := make(map[uint64]struct{}, len(result))
	for _, id := range result {
		in[id] = struct{}{}
	}
	hit := 0
	for _, id := range exact {
		if _, ok := in[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact)) * 100
}

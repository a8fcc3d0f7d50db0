package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// samples is a set of latencies in arrival order.
type samples []time.Duration

// percentile returns the nearest-rank p-quantile (0 < p <= 1): the smallest
// sample with at least p of the samples at or below it. 0 when empty.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// parts cuts the samples into n equal consecutive parts of the arrival order
// and returns each part's p-quantile in milliseconds. The load phases come in
// cycles that each offer the same number of operations, so a part is a cycle.
func (s samples) parts(p float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(s[i*len(s)/n : (i+1)*len(s)/n].percentile(p))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// An operation performs the i-th element of a stream on behalf of sender w
// and reports whether it succeeded with a correct answer.
type operation func(w, i int) bool

// loopResult is what a load phase observed.
type loopResult struct {
	sent   int
	perSec float64 // closed loop: successful operations per second
	lat    samples // open loop: from scheduled arrival to completion, in arrival order
	late   samples // open loop: how long after it could have sent each request the generator did
}

// add appends what a later phase observed.
func (l *loopResult) add(o loopResult) {
	l.sent += o.sent
	l.lat = append(l.lat, o.lat...)
	l.late = append(l.late, o.late...)
}

// closedLoop runs op from `clients` goroutines for d, each sending its next
// request when its previous one completes, and reports the successful
// completions per second.
func closedLoop(d time.Duration, clients int, op operation) loopResult {
	var next, failed atomic.Int64
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !op(w, int(next.Add(1)-1)) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	return loopResult{sent: int(next.Load()), perSec: float64(next.Load()-failed.Load()) / elapsed.Seconds()}
}

// openLoop offers rate operations per second for d from `senders`
// goroutines. Arrival i is due at begin + i/rate whatever happened to the
// arrivals before it, and its latency runs from that instant, so time spent
// waiting for a free sender counts. The generator's own lateness is kept
// apart: it is the delay between the moment a request could go out (it was
// due and a sender was free) and the moment it did.
func openLoop(d time.Duration, rate float64, senders int, op operation) loopResult {
	total := int(rate * d.Seconds())
	lat := make(samples, total)
	late := make(samples, total)
	var next atomic.Int64
	begin := time.Now()
	var wg sync.WaitGroup
	for w := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := begin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				free := time.Now()
				if wait := due.Sub(free); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				late[i] = sent.Sub(maxTime(due, free))
				op(w, i) // a failure is tallied by op; its latency counts like any other
				lat[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return loopResult{sent: total, lat: lat, late: late}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

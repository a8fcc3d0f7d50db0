package stats

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Add(time.Millisecond)
	tm.Add(2 * time.Millisecond)
	if tm.Value() != 3*time.Millisecond {
		t.Fatalf("timer = %v, want 3ms", tm.Value())
	}
	tm.Time(func() { time.Sleep(time.Millisecond) })
	if tm.Value() < 4*time.Millisecond {
		t.Fatalf("timer = %v, want >= 4ms", tm.Value())
	}
	tm.Reset()
	if tm.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCostsFinishDerivesClientTime(t *testing.T) {
	c := Costs{CommTime: 3 * time.Millisecond}
	c.CreditServer(uint64(time.Millisecond))
	if c.ServerTime != time.Millisecond || c.CommTime != 2*time.Millisecond {
		t.Fatalf("server = %v, comm = %v after crediting 1ms of 3ms wire time", c.ServerTime, c.CommTime)
	}
	start := time.Now().Add(-10 * time.Millisecond)
	c.Finish(start)
	if c.Overall < 10*time.Millisecond {
		t.Fatalf("overall = %v", c.Overall)
	}
	if c.ClientTime != c.Overall-c.ServerTime-c.CommTime {
		t.Fatalf("client = %v, want remainder", c.ClientTime)
	}
}

func TestCostsFinishClampsNegative(t *testing.T) {
	c := Costs{CommTime: time.Millisecond}
	c.CreditServer(uint64(time.Hour))
	if c.CommTime != 0 {
		t.Fatalf("comm = %v, want 0 (clamped)", c.CommTime)
	}
	c.Finish(time.Now())
	if c.ClientTime != 0 {
		t.Fatalf("client = %v, want 0 (clamped)", c.ClientTime)
	}
}

func TestCostsAccumulateAndDivide(t *testing.T) {
	var sum Costs
	one := Costs{
		ClientTime: 2 * time.Millisecond, EncryptTime: time.Millisecond,
		DecryptTime: time.Millisecond, DistCompTime: time.Millisecond,
		ServerTime: 4 * time.Millisecond, CommTime: 6 * time.Millisecond,
		Overall: 12 * time.Millisecond, BytesSent: 10, BytesReceived: 30,
		DistComps: 100, Candidates: 50, RoundTrips: 2,
	}
	for range 4 {
		sum.Accumulate(one)
	}
	avg := sum.DividedBy(4)
	if avg != one {
		t.Fatalf("avg = %+v, want %+v", avg, one)
	}
	if got := sum.DividedBy(0); got != sum {
		t.Fatal("DividedBy(0) must be identity")
	}
	if one.CommBytes() != 40 {
		t.Fatalf("comm bytes = %d, want 40", one.CommBytes())
	}
	if one.String() == "" {
		t.Fatal("empty string rendering")
	}
}

func TestRecallKnown(t *testing.T) {
	cases := []struct {
		result, exact []uint64
		want          float64
	}{
		{[]uint64{1, 2, 3}, []uint64{1, 2, 3}, 100},
		{[]uint64{1, 2}, []uint64{1, 2, 3, 4}, 50},
		{[]uint64{}, []uint64{1}, 0},
		{[]uint64{9}, []uint64{}, 100},
		{[]uint64{5, 6, 7}, []uint64{1, 2}, 0},
	}
	for _, c := range cases {
		if got := Recall(c.result, c.exact); got != c.want {
			t.Errorf("Recall(%v, %v) = %g, want %g", c.result, c.exact, got, c.want)
		}
	}
}

// Property: recall is always within [0,100], 100 for identical sets, and
// monotone under growing the result set.
func TestQuickRecallBounds(t *testing.T) {
	f := func(result, exact []uint64) bool {
		r := Recall(result, exact)
		if r < 0 || r > 100 {
			return false
		}
		if Recall(exact, exact) != 100 {
			return false
		}
		grown := append(append([]uint64{}, result...), exact...)
		return Recall(grown, exact) >= r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

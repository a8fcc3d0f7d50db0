package metric

import "simcloud/internal/stats"

// Counting wraps a Distance and counts every evaluation. It is the hook the
// benchmark harness uses to attribute distance computations to the client or
// the server side, one of the central cost components of the paper's
// evaluation.
type Counting struct {
	Inner Distance
	N     stats.Counter
}

// NewCounting wraps inner in a counting Distance.
func NewCounting(inner Distance) *Counting {
	return &Counting{Inner: inner}
}

// Name implements Distance.
func (c *Counting) Name() string { return c.Inner.Name() }

// Dist implements Distance.
func (c *Counting) Dist(a, b Vector) float64 {
	c.N.Add(1)
	return c.Inner.Dist(a, b)
}

// Count returns the number of distance evaluations so far.
func (c *Counting) Count() int64 { return c.N.Value() }

// Reset zeroes the evaluation counter.
func (c *Counting) Reset() { c.N.Reset() }

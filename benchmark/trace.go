package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// A span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused it, -1 for the operation itself.
// Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A trace holds the spans of a traced run in memory until the run ends.
//
// The benchmark may not edit the program, so it cannot open a span inside a
// layer. It nests spans by peeling instead: the same operation is issued once
// per depth (gateway, client at the coordinator, client at one reference
// server, engine in-process, one shard in-process) and the span of each
// depth is placed inside the span of the depth above, where the call it
// timed would have run. A span therefore keeps its measured duration, and
// its start is where its parent's layout puts it.
type trace struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	// Clipped is, per span name, child time that did not fit its parent: the
	// two were timed in different executions of the operation, and the inner
	// one came out longer. It is dropped from the budget and reported beside
	// it.
	Clipped map[string]int64 `json:"clipped_ns"`

	end int64 // where the next operation starts
}

// root records the span of a whole operation.
func (t *trace) root(op int, name string, d time.Duration) int {
	start := t.end
	t.end += int64(d)
	return t.push(span{Parent: -1, Op: op, Name: name, Start: start, End: t.end})
}

func (t *trace) push(s span) int {
	s.ID = len(t.Spans)
	t.Spans = append(t.Spans, s)
	return s.ID
}

// child records a span of duration d inside parent, starting offset after
// the parent's start, cut to the parent's interval.
func (t *trace) child(parent int, name string, offset, d time.Duration) int {
	p := t.Spans[parent]
	start := min(p.Start+int64(max(offset, 0)), p.End)
	end := start + int64(max(d, 0))
	if end > p.End {
		if t.Clipped == nil {
			t.Clipped = make(map[string]int64)
		}
		t.Clipped[name] += end - p.End
		end = p.End
	}
	return t.push(span{Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals inside the
// parent's interval.
func covered(parent span, children []span) int64 {
	type interval struct{ lo, hi int64 }
	var in []interval
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			in = append(in, interval{lo, hi})
		}
	}
	slices.SortFunc(in, func(a, b interval) int { return int(a.lo - b.lo) })
	var total, reach int64
	reach = parent.Start
	for _, iv := range in {
		lo := max(iv.lo, reach)
		if iv.hi > lo {
			total += iv.hi - lo
			reach = iv.hi
		}
	}
	return total
}

// A budgetRow is one line of the per-layer budget of an operation kind.
type budgetRow struct {
	Layer   string  `json:"layer"`
	SelfUS  float64 `json:"self_us_per_op"`
	PctFull float64 `json:"pct_full"`
}

// budget splits the traced operations rooted at spans named rootName into
// self time per span name, as mean microseconds per operation and as a share
// of the whole operation (%Full, the root = 100 %). The rows sum to the
// root's mean duration, because self times partition the root's interval.
func (t *trace) budget(rootName string) (rows []budgetRow, opUS float64) {
	inTree := make(map[int]bool)
	var tree []span
	ops := 0
	var total int64
	for _, s := range t.Spans { // parents precede their children
		if (s.Parent < 0 && s.Name == rootName) || inTree[s.Parent] {
			inTree[s.ID] = true
			tree = append(tree, s)
			if s.Parent < 0 {
				ops++
				total += s.End - s.Start
			}
		}
	}
	if ops == 0 {
		return nil, 0
	}
	for name, self := range selfTimes(tree) {
		rows = append(rows, budgetRow{
			Layer:   name,
			SelfUS:  us(self) / float64(ops),
			PctFull: 100 * float64(self) / float64(total),
		})
	}
	slices.SortFunc(rows, func(a, b budgetRow) int { return strings.Compare(a.Layer, b.Layer) })
	return rows, us(time.Duration(total)) / float64(ops)
}

func printBudget(w io.Writer, workload, rootName string, rows []budgetRow, opUS float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s: serial %s = %.1f us\t\t\t\n", workload, rootName, opUS)
	fmt.Fprintf(tw, "layer\tself us/op\t%%Full\t\n")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t\n", r.Layer, r.SelfUS, r.PctFull)
		sum += r.PctFull
	}
	fmt.Fprintf(tw, "total\t\t%.1f\t\n", sum)
	tw.Flush()
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	*trace
	Budgets map[string][]budgetRow `json:"budgets"`
}

func (t *trace) write(dir string, budgets map[string][]budgetRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+t.Workload+".json")
	blob, err := json.Marshal(traceFile{trace: t, Budgets: budgets})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

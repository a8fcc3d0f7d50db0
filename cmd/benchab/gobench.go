package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"simcloud/internal/bench"
)

// key names one benchmark configuration: the name without its -GOMAXPROCS
// suffix, and the proc count (1 without one, as go test prints -cpu 1).
type key struct {
	name  string
	procs int
}

func (k key) String() string {
	if k.procs == 1 {
		return k.name
	}
	return fmt.Sprintf("%s-%d", k.name, k.procs)
}

// goBench is one `go test -bench` output: per configuration and unit every
// run in output order, and the goos / goarch / pkg / cpu lines.
type goBench struct {
	header []string
	runs   map[key]map[string][]float64
}

// parseBench reads `go test -bench` output, skipping the lines that are not
// results (PASS, ok, logs). An output without a result is an error.
func parseBench(in io.Reader) (*goBench, error) {
	b := &goBench{runs: map[key]map[string][]float64{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, r, ok := parseResult(line); ok {
			if b.runs[k] == nil {
				b.runs[k] = map[string][]float64{}
			}
			for u, v := range r {
				b.runs[k][u] = append(b.runs[k][u], v)
			}
		} else if h, _, _ := strings.Cut(line, ": "); slices.Contains([]string{"goos", "goarch", "pkg", "cpu"}, h) && !slices.Contains(b.header, line) {
			b.header = append(b.header, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(b.runs) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return b, nil
}

// parseResult parses one result line, the (value, unit) pairs after the
// iteration count:
//
//	BenchmarkName-8   8895   58069 ns/op   160772 B/op   2 allocs/op
func parseResult(line string) (key, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return key{}, nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return key{}, nil, false
	}
	k := key{name: fields[0], procs: 1}
	if i := strings.LastIndex(k.name, "-"); i > 0 {
		if p, err := strconv.Atoi(k.name[i+1:]); err == nil {
			k.name, k.procs = k.name[:i], p
		}
	}
	r := map[string]float64{}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return key{}, nil, false
		}
		r[fields[i+1]] = v
	}
	return k, r, true
}

// keys are the configurations by name, then proc count.
func (b *goBench) keys() []key {
	return slices.SortedFunc(maps.Keys(b.runs), func(x, y key) int {
		return cmp.Or(strings.Compare(x.name, y.name), x.procs-y.procs)
	})
}

// procs are the proc counts name was measured at, ascending.
func (b *goBench) procs(name string) []int {
	var ps []int
	for _, k := range b.keys() {
		if k.name == name {
			ps = append(ps, k.procs)
		}
	}
	return ps
}

// median is the middle of vs by quantile's rule, 0 when vs is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(slices.Sorted(slices.Values(vs)), 0.5)
}

// rows are the output's history rows, one per configuration and unit named
// by the benchmark: the median, and every run listed in extra.
func (b *goBench) rows() []bench.HistoryRow {
	var out []bench.HistoryRow
	for _, k := range b.keys() {
		for _, u := range slices.Sorted(maps.Keys(b.runs[k])) {
			vs := b.runs[k][u]
			extra := fmt.Sprintf("go test -bench; runs %s; %s", strings.Trim(fmt.Sprint(vs), "[]"), strings.Join(b.header, ", "))
			out = append(out, bench.HistoryRow{Name: k.String(), Value: median(vs), Unit: u, Extra: extra})
		}
	}
	return out
}

// render prints every configuration's median and quartiles per unit.
func (b *goBench) render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tunit\tmedian\tq1–q3\truns\t")
	for _, k := range b.keys() {
		for _, u := range slices.Sorted(maps.Keys(b.runs[k])) {
			st := summarize(b.runs[k][u])
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g–%.4g\t%d\t\n", k, u, st.med, st.q1, st.q3, len(b.runs[k][u]))
		}
	}
	tw.Flush()
}

// gateFlags are the gates to run on a `go test -bench` output.
type gateFlags struct {
	scaleLimit, allocSlack, speedupMin    float64
	baseline                              string
	allocExclude, speedupBase, speedupNew *regexp.Regexp
}

func (g gateFlags) enabled() bool { return g.scaleLimit > 0 || g.allocSlack > 0 || g.speedupMin > 0 }

// runBench writes the output's rows to out, then renders it, or runs the
// enabled gates on it; a failed check is an error.
func runBench(w io.Writer, b *goBench, out string, g gateFlags) error {
	var base *goBench
	if g.allocSlack > 0 {
		var err error
		if _, base, err = readInput(g.baseline); err == nil && base == nil {
			err = fmt.Errorf("-baseline %s is a history file, not go test -bench output", g.baseline)
		}
		if err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeRows(out, nil, b.rows()); err != nil {
			return err
		}
	}
	if !g.enabled() {
		b.render(w)
		return nil
	}
	gs := &gates{w: w}
	if g.scaleLimit > 0 {
		gs.scale(b, g.scaleLimit, runtime.NumCPU())
	}
	if g.speedupMin > 0 {
		gs.speedup(b, g.speedupBase, g.speedupNew, g.speedupMin)
	}
	if base != nil {
		gs.allocs(b, base, g.allocSlack, g.allocExclude)
	}
	if gs.failed > 0 {
		return fmt.Errorf("%d of %d checks failed", gs.failed, gs.failed+gs.checked)
	}
	fmt.Fprintf(w, "benchab: all %d checks passed\n", gs.checked)
	return nil
}

// gates prints the verdict of every check it runs and counts them. A gate
// that finds nothing to check fails: its bench regexp or baseline rotted.
type gates struct {
	w               io.Writer
	checked, failed int
}

// check prints line as passed if ok, else as failed, why appended.
func (g *gates) check(ok bool, line, why string) {
	if ok {
		g.checked++
		fmt.Fprintf(g.w, "ok    %s\n", line)
		return
	}
	g.failed++
	fmt.Fprintf(g.w, "FAIL  %s%s\n", line, why)
}

// scale gates reader scaling within one run: per benchmark measured at
// several proc counts, the median ns/op at the largest count cpus cores can
// run is at most limit times the one at the lowest. Wait-free readers hold
// the ratio near 1, a serialized read path passes it (>3x in
// bench/BENCH_RWMUTEX_6.txt). A benchmark with no count to judge is skipped.
func (g *gates) scale(b *goBench, limit float64, cpus int) {
	families, usable := 0, 0
	for _, k := range b.keys() {
		procs := b.procs(k.name)
		if len(procs) < 2 || k.procs != procs[0] {
			continue
		}
		families++
		i, _ := slices.BinarySearch(procs, cpus+1) // procs[:i] are the counts cpus cores can run
		hi := procs[max(i-1, 0)]
		if hi == k.procs {
			fmt.Fprintf(g.w, "skip  %s: measured at procs %v but this machine has %d CPUs — no scaling point to judge\n", k.name, procs, cpus)
			continue
		}
		usable++
		ratio := median(b.runs[key{k.name, hi}]["ns/op"]) / median(b.runs[k]["ns/op"])
		line := fmt.Sprintf("%s: ns/op @%d procs / @%d procs = %.2f (limit %.2f)", k.name, hi, k.procs, ratio, limit)
		g.check(ratio <= limit, line, " — read path serializes as procs grow")
	}
	if families == 0 {
		g.check(false, "scale gate: no benchmark family measured at multiple proc counts — was -cpu 1,4,8 dropped?", "")
	} else if usable == 0 {
		fmt.Fprintf(g.w, "note  scale gate: %d families skipped — rerun on a machine with more cores for a meaningful curve\n", families)
	}
}

// allocs gates the median allocs/op of every configuration in both the run
// and the baseline at max(slack × baseline, baseline + 2), skipping the
// benchmarks exclude matches. A baseline row whose benchmark the run
// measured only at other proc counts fails by name rather than drop out.
func (g *gates) allocs(b, base *goBench, slack float64, exclude *regexp.Regexp) {
	matched := 0
	for _, k := range base.keys() {
		ref := base.runs[k]["allocs/op"]
		if (exclude != nil && exclude.MatchString(k.name)) || len(ref) == 0 {
			continue
		}
		if procs := b.procs(k.name); len(procs) > 0 && !slices.Contains(procs, k.procs) {
			g.check(false, fmt.Sprintf("%s: in the baseline, but this run measured it only at procs %v — pin go test -cpu to the baseline's", k, procs), "")
			continue
		}
		if len(b.runs[k]["allocs/op"]) == 0 {
			continue
		}
		matched++
		cur, was := median(b.runs[k]["allocs/op"]), median(ref)
		limit := max(was*slack, was+2)
		g.check(cur <= limit, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (limit %.0f)", k, cur, was, limit), "")
	}
	if matched == 0 {
		g.check(false, "allocs/op gate: no benchmark present in both current run and baseline", "")
	}
}

// speedup gates an A/B pair within one run: the median ns/op pooled over
// the benchmarks baseRE matches is at least minRatio times the one pooled
// over those newRE matches.
func (g *gates) speedup(b *goBench, baseRE, newRE *regexp.Regexp, minRatio float64) {
	pool := func(re *regexp.Regexp) (float64, []string) {
		var vs []float64
		var names []string
		for _, k := range b.keys() {
			if re.MatchString(k.name) {
				vs = append(vs, b.runs[k]["ns/op"]...)
				names = append(names, k.String())
			}
		}
		return median(vs), names
	}
	baseNs, baseNames := pool(baseRE)
	newNs, newNames := pool(newRE)
	switch {
	case baseNs == 0:
		g.check(false, fmt.Sprintf("speedup gate: -speedup-base %q matched no ns/op results", baseRE), "")
	case newNs == 0:
		g.check(false, fmt.Sprintf("speedup gate: -speedup-new %q matched no ns/op results", newRE), "")
	default:
		ratio := baseNs / newNs
		g.check(ratio >= minRatio, fmt.Sprintf("speedup: %s (%.0f ns/op) / %s (%.0f ns/op) = %.2fx (min %.2fx)",
			strings.Join(baseNames, ","), baseNs, strings.Join(newNames, ","), newNs, ratio, minRatio), " — below the floor")
	}
}

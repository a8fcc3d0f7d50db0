// Command benchab measures a change against a base revision the way every
// performance claim of this repository is shown: alternated pairs of
// benchmark/run.sh on the two checkouts, then per metric each side's median
// and quartiles, the pairs won, a sign test, the Hodges–Lehmann shift, the
// gain verdict and the regression bound that BENCHMARK.json fixes.
//
//	go run ./cmd/benchab -base HEAD~1 -workload exact_disk -pairs 10 -seed 4001 -out bench/history/BENCH_40.json
//	go run ./cmd/benchab -input bench/history/BENCH_40.json
//
// The change is the checkout in the current directory, as it is on disk;
// the base is the given revision, extracted with git archive into a
// temporary directory that is removed afterwards. Pair i runs seed+i on both
// sides; even pairs run the base first and odd ones the change (ABBA), so a
// drift of the host's speed falls on both sides alike. The tool runs only
// benchmark/run.sh and reads the JSON object on the last line of its output.
//
// The verdict is the one of the choosing-metrics method: a gain needs at
// least ten pairs, the change winning nine tenths of them, ties counting for
// neither, and the medians to differ by more than the base's interquartile
// range. A metric worse by more than its bound EXCEEDS it; one whose base
// spread alone is wider than the bound is unresolved unless every run of the
// change beats every run of the base.
//
// -out writes one row per metric and side in the name / value / unit /
// extra shape of bench/history, every run listed in extra, replacing the
// rows of the same series in an existing file; -input renders such a file
// again, recorded runs included.
//
// -input also reads `go test -bench` output, told from a history file by
// its content: it prints each benchmark's median per unit, -out records one
// row per benchmark and unit (the median, and every run in extra), and the
// gates CI runs on it — -scale-limit; -baseline with -alloc-slack and
// -alloc-exclude; -speedup-base, -speedup-new and -speedup-min — exit 1 on
// a failed check or on a gate that matched nothing:
//
//	go run ./cmd/benchab -input conc.txt -scale-limit 1.5 -baseline bench/BENCH_BASELINE_6.txt -alloc-slack 1.5 -alloc-exclude Churn
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"simcloud/internal/bench"
)

// metricSpec is one metric of BENCHMARK.json. Bound is 0 for a per-layer
// metric, which has none.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (map[string]metricSpec, []string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	specs := map[string]metricSpec{}
	var order []string
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		specs[m.Name] = m
		order = append(order, m.Name)
	}
	return specs, order, nil
}

// The two sides of a series, and their names in history rows.
const sideBase, sideChange = 0, 1

var sideNames = [2]string{"parent", "change"}

// series is the runs of one A/B comparison: per side and metric the value
// of every pair, pair i of one side beside pair i of the other.
type series struct {
	label   string
	note    string // how the runs were made
	metrics []string
	units   map[string]string
	runs    [2]map[string][]float64
	failed  [2][]int // failed operations per run
}

func newSeries(label, note string) *series {
	return &series{label: label, note: note, units: map[string]string{},
		runs: [2]map[string][]float64{{}, {}}}
}

func (s *series) add(side int, metric, unit string, v float64) {
	if _, ok := s.units[metric]; !ok {
		s.metrics = append(s.metrics, metric)
		s.units[metric] = unit
	}
	s.runs[side][metric] = append(s.runs[side][metric], v)
}

// runResult is the last line of benchmark/run.sh.
type runResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runOnce runs the benchmark once in dir and decodes its last line. A run
// with failed operations exits 1 and still reports them; a run that prints
// no result is an error.
func runOnce(ctx context.Context, dir, workload string, seed uint64, seconds float64, trace bool) (runResult, error) {
	tr := map[bool]string{false: "0", true: "1"}[trace]
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
	cmd.Dir = dir
	killGroup(cmd)
	// Where the children cannot be killed with the shell, they may outlive
	// it and hold its output open: stop waiting for them.
	cmd.WaitDelay = 2 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return runResult{}, ctx.Err()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		tail := stderr.String()
		if i := len(tail) - 2000; i > 0 {
			tail = tail[i:]
		}
		return res, fmt.Errorf("run in %s printed no result (%v):\n%s", dir, runErr, tail)
	}
	return res, nil
}

// extract writes the tree of rev, as git archive produces it, under dir.
func extract(repo, rev, dir string) error {
	cmd := exec.Command("bash", "-c", `set -o pipefail; git -C "$1" archive --format=tar "$2" | tar -x -C "$3"`, "extract", repo, rev, dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s: %v: %s", rev, err, out)
	}
	return nil
}

// measure runs the pairs in the two checkouts, base's then change's, and
// collects every metric the runs print.
func measure(ctx context.Context, dirs [2]string, workload string, pairs int, seed uint64, seconds float64, trace bool, s *series) error {
	for p := range pairs {
		for _, side := range [2][2]int{{sideBase, sideChange}, {sideChange, sideBase}}[p%2] {
			start := time.Now()
			res, err := runOnce(ctx, dirs[side], workload, seed+uint64(p), seconds, trace)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				s.add(side, name, m.Unit, m.Value)
			}
			s.failed[side] = append(s.failed[side], res.Failed)
			fmt.Fprintf(os.Stderr, "benchab: pair %d/%d seed %d %-6s %d/%d operations failed, %.0f s\n",
				p+1, pairs, seed+uint64(p), [2]string{"base", "change"}[side], res.Failed, res.Attempted, time.Since(start).Seconds())
		}
	}
	return nil
}

// stats are one side's figures: the median and the quartiles, taken at
// (n+1)p of the sorted runs, interpolated — the rule of the history files.
type stats struct{ q1, med, q3 float64 }

func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	h := (float64(n) + 1) * p
	switch {
	case h <= 1:
		return sorted[0]
	case h >= float64(n):
		return sorted[n-1]
	}
	lo := int(h) - 1
	return sorted[lo] + (h-math.Floor(h))*(sorted[lo+1]-sorted[lo])
}

func summarize(runs []float64) stats {
	s := slices.Sorted(slices.Values(runs))
	return stats{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// signP is the two-sided sign test: the chance of a split at least as
// uneven as wins to losses among wins+losses fair coin flips.
func signP(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	lgamma := func(x int) float64 { v, _ := math.Lgamma(float64(x)); return v }
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1) - float64(n)*math.Ln2)
	}
	return min(1, 2*tail)
}

// hodgesLehmann is the Hodges–Lehmann estimate of the shift from base to
// change: the median of every change−base difference over all pairs of one
// run from each side — pairings across pairs included, so one odd run moves
// it little — as a fraction of the base median (0 when that is 0 or a side
// has no run).
func hodgesLehmann(base, change []float64, baseMedian float64) float64 {
	if len(base) == 0 || len(change) == 0 || baseMedian == 0 {
		return 0
	}
	diffs := make([]float64, 0, len(base)*len(change))
	for _, b := range base {
		for _, c := range change {
			diffs = append(diffs, c-b)
		}
	}
	return summarize(diffs).med / math.Abs(baseMedian)
}

// comparison is one metric of a series, judged.
type comparison struct {
	metric, unit       string
	base, change       stats
	pairs              int
	wins, losses, ties int
	p                  float64
	hl                 float64 // Hodges–Lehmann shift, a fraction of the base median
	identical          bool    // every pair read the same on both sides
	gain               bool
	bound              float64 // 0: none
	boundVerdict       string  // within, EXCEEDS, unresolved, or "" without a bound
	relChange          float64
}

func compare(metric, unit string, base, change []float64, spec metricSpec, known bool) comparison {
	c := comparison{metric: metric, unit: unit, base: summarize(base), change: summarize(change), identical: true}
	c.pairs = min(len(base), len(change))
	higher := spec.Better == "higher"
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for i := range c.pairs {
		switch {
		case better(change[i], base[i]):
			c.wins++
		case better(base[i], change[i]):
			c.losses++
		default:
			c.ties++
		}
		if change[i] != base[i] {
			c.identical = false
		}
	}
	for _, b := range base {
		for _, v := range change {
			if !better(v, b) {
				allBetter = false
			}
		}
	}
	c.p = signP(c.wins, c.losses)
	c.hl = hodgesLehmann(base, change, c.base.med)
	if c.base.med != 0 {
		c.relChange = (c.change.med - c.base.med) / math.Abs(c.base.med)
	}
	relWorse := c.relChange
	if higher {
		relWorse = -c.relChange
	}
	if !known {
		return c
	}
	gap := math.Abs(c.change.med - c.base.med)
	c.gain = better(c.change.med, c.base.med) && c.pairs >= 10 && 10*c.wins >= 9*c.pairs && gap > c.base.q3-c.base.q1
	if c.bound = spec.Bound; c.bound > 0 {
		spread := 0.0
		if c.base.med != 0 {
			spread = (c.base.q3 - c.base.q1) / math.Abs(c.base.med)
		}
		switch {
		case allBetter || (relWorse <= c.bound && spread <= c.bound):
			c.boundVerdict = "within"
		case spread > c.bound:
			c.boundVerdict = "unresolved"
		default:
			c.boundVerdict = "EXCEEDS"
		}
	}
	return c
}

// compareAll judges every metric of a series, in BENCHMARK.json's order
// first, then any others the runs printed.
func compareAll(s *series, specs map[string]metricSpec, order []string) []comparison {
	rank := func(n string) int {
		if i := slices.Index(order, n); i >= 0 {
			return i
		}
		return len(order)
	}
	names := slices.SortedStableFunc(slices.Values(s.metrics), func(a, b string) int {
		return cmp.Or(rank(a)-rank(b), strings.Compare(a, b))
	})
	var out []comparison
	for _, n := range names {
		b, c := s.runs[sideBase][n], s.runs[sideChange][n]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		spec, known := specs[n]
		out = append(out, compare(n, s.units[n], b, c, spec, known))
	}
	return out
}

func render(w io.Writer, s *series, cs []comparison) {
	fmt.Fprintf(w, "%s", s.label)
	if s.note != "" {
		fmt.Fprintf(w, " — %s", s.note)
	}
	fmt.Fprintln(w)
	if len(s.failed[0]) > 0 {
		fmt.Fprintf(w, "failed operations: base %v, change %v\n", s.failed[0], s.failed[1])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tbase median\tbase q1–q3\tchange median\tchange q1–q3\tchange\twins/losses/ties\tsign p\tHL shift\tgain\tbound\t")
	for _, c := range cs {
		gain := "no"
		if c.gain {
			gain = "GAIN"
		}
		bound := c.boundVerdict
		if c.bound > 0 {
			bound = fmt.Sprintf("%s (%g%%)", bound, 100*c.bound)
		}
		delta := fmt.Sprintf("%+.1f%%", 100*c.relChange)
		if c.identical {
			delta = "identical"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g–%.4g\t%.4g\t%.4g–%.4g\t%s\t%d/%d/%d\t%.3g\t%+.1f%%\t%s\t%s\t\n",
			c.metric, c.unit, c.base.med, c.base.q1, c.base.q3, c.change.med, c.change.q1, c.change.q3,
			delta, c.wins, c.losses, c.ties, c.p, 100*c.hl, gain, bound)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// rows renders a series as history rows: per metric a base and a change
// row, the value the median, extra the runs in pair order.
func rows(s *series, cs []comparison) []bench.HistoryRow {
	var out []bench.HistoryRow
	failed := func(f []int) string {
		if slices.ContainsFunc(f, func(n int) bool { return n != 0 }) {
			return fmt.Sprintf("failed operations per run %v", f)
		}
		return "failed operations 0 in every run"
	}
	for _, c := range cs {
		for side, st := range [2]stats{c.base, c.change} {
			runs := s.runs[side][c.metric]
			vals := make([]string, len(runs))
			for i, v := range runs {
				vals[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			extra := fmt.Sprintf("%s; quartiles %.6g %.6g; runs %s; %s; wins %d, losses %d, ties %d, sign p %.3g, HL shift %+.2f%%",
				s.note, st.q1, st.q3, strings.Join(vals, " "), failed(s.failed[side]), c.wins, c.losses, c.ties, c.p, 100*c.hl)
			out = append(out, bench.HistoryRow{Name: s.label + "/" + c.metric + "/" + sideNames[side], Value: st.med, Unit: c.unit, Extra: extra})
		}
	}
	return out
}

var (
	runsRE   = regexp.MustCompile(`(?:^|; )runs ([^;|]+)`)
	failedRE = regexp.MustCompile(`failed operations per run \[([0-9 ]*)\]`)
)

// readInput reads -input: a history file (a JSON list of rows) as its
// series, anything else as `go test -bench` output.
func readInput(path string) ([]*series, *goBench, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s []*series
	var b *goBench
	if bytes.HasPrefix(bytes.TrimSpace(blob), []byte("[")) {
		var rs []bench.HistoryRow
		if err = json.Unmarshal(blob, &rs); err == nil {
			s, err = readSeries(rs)
		}
	} else {
		b, err = parseBench(bytes.NewReader(blob))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, b, nil
}

// readSeries parses history rows back into series: every row named
// <label>/<metric>/parent or /change whose extra lists its runs. Rows
// without runs (single traced figures, counts) and the rows of `go test
// -bench` runs are skipped.
func readSeries(rs []bench.HistoryRow) ([]*series, error) {
	var out []*series
	byLabel := map[string]*series{}
	for _, r := range rs {
		i := strings.LastIndex(r.Name, "/")
		j := strings.Index(r.Name, "/")
		side := slices.Index(sideNames[:], r.Name[i+1:])
		m := runsRE.FindStringSubmatch(r.Extra)
		if i <= j || side < 0 || m == nil {
			continue
		}
		label, metric := r.Name[:j], r.Name[j+1:i]
		s, ok := byLabel[label]
		if !ok {
			note, _, _ := strings.Cut(r.Extra, "; quartiles")
			s = newSeries(label, note)
			byLabel[label] = s
			out = append(out, s)
		}
		for _, f := range strings.Fields(m[1]) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("row %s: run %q: %w", r.Name, f, err)
			}
			s.add(side, metric, r.Unit, v)
		}
		if fm := failedRE.FindStringSubmatch(r.Extra); fm != nil && s.failed[side] == nil {
			for _, f := range strings.Fields(fm[1]) {
				n, _ := strconv.Atoi(f)
				s.failed[side] = append(s.failed[side], n)
			}
		}
	}
	return out, nil
}

// writeRows writes rs to path, keeping the rows of an existing file but
// those of the given series and those that rs replaces, by name and unit.
func writeRows(path string, labels []string, rs []bench.HistoryRow) error {
	var kept []bench.HistoryRow
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &kept); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	kept = slices.DeleteFunc(kept, func(r bench.HistoryRow) bool {
		return slices.ContainsFunc(labels, func(l string) bool { return strings.HasPrefix(r.Name, l+"/") }) ||
			slices.ContainsFunc(rs, func(n bench.HistoryRow) bool { return n.Name == r.Name && n.Unit == r.Unit })
	})
	var buf bytes.Buffer
	if err := bench.WriteHistory(&buf, append(kept, rs...)); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func main() {
	base := flag.String("base", "", "git revision to compare the checkout in the current directory against")
	pairs := flag.Int("pairs", 10, "pairs of runs; pair i runs seed+i on both sides")
	workload := flag.String("workload", "exact_disk", "benchmark workload")
	seconds := flag.Float64("seconds", 40, "timed window of every run")
	seed := flag.Uint64("seed", 4001, "seed of the first pair")
	trace := flag.Bool("trace", false, "traced runs: per-layer metrics beside the end-to-end ones")
	label := flag.String("label", "", "series name in the output rows of an A/B run (default: the workload)")
	out := flag.String("out", "", "write the rows to this history file, replacing its rows of the same series or name")
	input := flag.String("input", "", "render a recorded history file or go test -bench output instead of running")
	var g gateFlags
	flag.Float64Var(&g.scaleLimit, "scale-limit", 0, "gate: max ns/op at the most procs this machine has cores for / ns/op at the fewest (0 = off)")
	flag.StringVar(&g.baseline, "baseline", "", "go test -bench output the -alloc-slack gate compares against")
	flag.Float64Var(&g.allocSlack, "alloc-slack", 0, "gate: max allocs/op as a multiple of -baseline (0 = off)")
	regexpVar := func(p **regexp.Regexp, name, usage string) {
		flag.Func(name, usage, func(s string) (err error) { *p, err = regexp.Compile(s); return err })
	}
	regexpVar(&g.allocExclude, "alloc-exclude", "regexp of benchmark names the -alloc-slack gate skips")
	regexpVar(&g.speedupBase, "speedup-base", "regexp of the slow side of the -speedup-min gate")
	regexpVar(&g.speedupNew, "speedup-new", "regexp of the fast side of the -speedup-min gate")
	flag.Float64Var(&g.speedupMin, "speedup-min", 0, "gate: min median ns/op of -speedup-base / that of -speedup-new (0 = off)")
	flag.Parse()
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "benchab: "+msg)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0 || (*input == "") == (*base == "") || *pairs < 1 || *seconds <= 0:
		usage("give -base <rev> to run pairs, or -input <file> to render one")
	case g.enabled() && *input == "":
		usage("the gates read the go test -bench output given with -input")
	case g.allocSlack > 0 && g.baseline == "":
		usage("-alloc-slack needs -baseline")
	case g.speedupMin > 0 && (g.speedupBase == nil || g.speedupNew == nil):
		usage("-speedup-min needs -speedup-base and -speedup-new")
	}
	// An interrupt stops the run in flight, and run still removes the base
	// checkout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *base, *input, *out, *workload, *label, *pairs, *seed, *seconds, *trace, g); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base, input, out, workload, label string, pairs int, seed uint64, seconds float64, trace bool, g gateFlags) error {
	var all []*series
	if input != "" {
		s, b, err := readInput(input)
		if err != nil {
			return err
		}
		if b != nil {
			return runBench(os.Stdout, b, out, g)
		}
		if g.enabled() {
			return fmt.Errorf("%s is a history file: the gates read go test -bench output", input)
		}
		all = s
	}
	specs, order, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if input == "" {
		change, err := os.Getwd()
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "benchab-base-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := extract(change, base, dir); err != nil {
			return err
		}
		if label == "" {
			label = workload
		}
		tr := map[bool]string{false: "0", true: "1"}[trace]
		rev, err := exec.Command("git", "-C", change, "rev-parse", "--short", base).Output()
		if err != nil {
			return fmt.Errorf("resolving %s: %w", base, err)
		}
		note := fmt.Sprintf("base %s (%s); %d pairs of benchmark/run.sh --workload %s --seed %d+i --seconds %g --trace %s, base first in even pairs and change first in odd ones; %d CPUs, %s %s/%s",
			strings.TrimSpace(string(rev)), base, pairs, workload, seed, seconds, tr, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		s := newSeries(label, note)
		if err := measure(ctx, [2]string{dir, change}, workload, pairs, seed, seconds, trace, s); err != nil {
			return err
		}
		all = append(all, s)
	}
	var rs []bench.HistoryRow
	var labels []string
	for _, s := range all {
		cs := compareAll(s, specs, order)
		render(os.Stdout, s, cs)
		rs = append(rs, rows(s, cs)...)
		labels = append(labels, s.label)
	}
	if out != "" {
		return writeRows(out, labels, rs)
	}
	return nil
}

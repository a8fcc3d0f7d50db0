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
package main

import (
	"bytes"
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
)

// metricSpec is one metric of BENCHMARK.json. Bound is 0 for a per-layer
// metric, which has none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (map[string]metricSpec, []string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s benchSpec
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

// row is one line of a bench/history file.
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra"`
}

// series is the runs of one A/B comparison: per metric, the base's and the
// change's value of every pair, pair i of one side beside pair i of the
// other.
type series struct {
	label   string
	note    string // how the runs were made
	metrics []string
	units   map[string]string
	base    map[string][]float64
	change  map[string][]float64
	failed  [2][]int // failed operations per run, base then change
}

func newSeries(label, note string) *series {
	return &series{label: label, note: note, units: map[string]string{},
		base: map[string][]float64{}, change: map[string][]float64{}}
}

func (s *series) add(change bool, metric, unit string, v float64) {
	if _, ok := s.units[metric]; !ok {
		s.metrics = append(s.metrics, metric)
		s.units[metric] = unit
	}
	if change {
		s.change[metric] = append(s.change[metric], v)
	} else {
		s.base[metric] = append(s.base[metric], v)
	}
}

// runResult is the last line of benchmark/run.sh.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runOnce runs the benchmark once in dir and decodes its last line. A run
// with failed operations exits 1 and still reports them; a run that prints
// no result is an error.
func runOnce(ctx context.Context, dir, workload string, seed uint64, seconds float64, trace bool) (runResult, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
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

// measure runs the pairs and collects every metric the runs print.
func measure(ctx context.Context, base, change, workload string, pairs int, seed uint64, seconds float64, trace bool, s *series) error {
	for p := range pairs {
		order := []bool{false, true}
		if p%2 == 1 {
			order = []bool{true, false}
		}
		for _, isChange := range order {
			dir, side := base, "base"
			if isChange {
				dir, side = change, "change"
			}
			start := time.Now()
			res, err := runOnce(ctx, dir, workload, seed+uint64(p), seconds, trace)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				s.add(isChange, name, m.Unit, m.Value)
			}
			i := 0
			if isChange {
				i = 1
			}
			s.failed[i] = append(s.failed[i], res.Failed)
			fmt.Fprintf(os.Stderr, "benchab: pair %d/%d seed %d %-6s %d/%d operations failed, %.0f s\n",
				p+1, pairs, seed+uint64(p), side, res.Failed, res.Attempted, time.Since(start).Seconds())
		}
	}
	return nil
}

// stats are one side's figures: the median and the quartiles, taken at
// (n+1)p of the sorted runs, interpolated — the rule of the history files.
type stats struct{ q1, med, q3 float64 }

func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
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
	s := slices.Clone(runs)
	slices.Sort(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stats{quantile(s, 0.25), med, quantile(s, 0.75)}
}

// signP is the two-sided sign test: the chance of a split at least as
// uneven as wins to losses among wins+losses fair coin flips.
func signP(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
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

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
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
	names := slices.Clone(s.metrics)
	rank := map[string]int{}
	for i, n := range order {
		rank[n] = i
	}
	slices.SortStableFunc(names, func(a, b string) int {
		ra, oka := rank[a]
		rb, okb := rank[b]
		switch {
		case oka && okb:
			return ra - rb
		case oka:
			return -1
		case okb:
			return 1
		}
		return strings.Compare(a, b)
	})
	var out []comparison
	for _, n := range names {
		b, c := s.base[n], s.change[n]
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
func rows(s *series, cs []comparison) []row {
	var out []row
	failed := func(f []int) string {
		if slices.ContainsFunc(f, func(n int) bool { return n != 0 }) {
			return fmt.Sprintf("failed operations per run %v", f)
		}
		return "failed operations 0 in every run"
	}
	for _, c := range cs {
		for k, side := range [2]string{"parent", "change"} {
			runs, st := s.base[c.metric], c.base
			if k == 1 {
				runs, st = s.change[c.metric], c.change
			}
			vals := make([]string, len(runs))
			for i, v := range runs {
				vals[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			extra := fmt.Sprintf("%s; quartiles %.6g %.6g; runs %s; %s; wins %d, losses %d, ties %d, sign p %.3g, HL shift %+.2f%%",
				s.note, st.q1, st.q3, strings.Join(vals, " "), failed(s.failed[k]), c.wins, c.losses, c.ties, c.p, 100*c.hl)
			out = append(out, row{Name: s.label + "/" + c.metric + "/" + side, Value: st.med, Unit: c.unit, Extra: extra})
		}
	}
	return out
}

var (
	runsRE   = regexp.MustCompile(`(?:^|; )runs ([^;|]+)`)
	failedRE = regexp.MustCompile(`failed operations per run \[([0-9 ]*)\]`)
)

// readSeries parses a history file back into series: every row named
// <label>/<metric>/parent or /change whose extra lists its runs. Rows
// without runs (single traced figures, counts) are skipped.
func readSeries(path string) ([]*series, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []row
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []*series
	byLabel := map[string]*series{}
	for _, r := range rs {
		i := strings.LastIndex(r.Name, "/")
		j := strings.Index(r.Name, "/")
		side := r.Name[i+1:]
		if i <= j || (side != "parent" && side != "change") {
			continue
		}
		m := runsRE.FindStringSubmatch(r.Extra)
		if m == nil {
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
				return nil, fmt.Errorf("%s: row %s: run %q: %w", path, r.Name, f, err)
			}
			s.add(side == "change", metric, r.Unit, v)
		}
		if fm := failedRE.FindStringSubmatch(r.Extra); fm != nil {
			k := 0
			if side == "change" {
				k = 1
			}
			if s.failed[k] == nil {
				for _, f := range strings.Fields(fm[1]) {
					n, _ := strconv.Atoi(f)
					s.failed[k] = append(s.failed[k], n)
				}
			}
		}
	}
	return out, nil
}

// writeRows writes rs to path, keeping the rows of an existing file that
// belong to other series.
func writeRows(path string, labels []string, rs []row) error {
	var kept []row
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &kept); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	kept = slices.DeleteFunc(kept, func(r row) bool {
		return slices.ContainsFunc(labels, func(l string) bool { return strings.HasPrefix(r.Name, l+"/") })
	})
	blob, err := json.MarshalIndent(append(kept, rs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	base := flag.String("base", "", "git revision to compare the checkout in the current directory against")
	pairs := flag.Int("pairs", 10, "pairs of runs; pair i runs seed+i on both sides")
	workload := flag.String("workload", "exact_disk", "benchmark workload")
	seconds := flag.Float64("seconds", 40, "timed window of every run")
	seed := flag.Uint64("seed", 4001, "seed of the first pair")
	trace := flag.Bool("trace", false, "traced runs: per-layer metrics beside the end-to-end ones")
	label := flag.String("label", "", "series name in the output rows (default: the workload)")
	out := flag.String("out", "", "write the series' rows to this history file, replacing its rows of the same series")
	input := flag.String("input", "", "render a recorded history file instead of running")
	flag.Parse()
	if flag.NArg() > 0 || (*input == "") == (*base == "") || *pairs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchab: give -base <rev> to run pairs, or -input <file> to render one")
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt stops the run in flight, and run still removes the base
	// checkout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *base, *input, *out, *workload, *label, *pairs, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base, input, out, workload, label string, pairs int, seed uint64, seconds float64, trace bool) error {
	specs, order, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var all []*series
	if input != "" {
		if all, err = readSeries(input); err != nil {
			return err
		}
	} else {
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
		tr := "0"
		if trace {
			tr = "1"
		}
		rev, err := exec.Command("git", "-C", change, "rev-parse", "--short", base).Output()
		if err != nil {
			return fmt.Errorf("resolving %s: %w", base, err)
		}
		note := fmt.Sprintf("base %s (%s); %d pairs of benchmark/run.sh --workload %s --seed %d+i --seconds %g --trace %s, base first in even pairs and change first in odd ones; %d CPUs, %s %s/%s",
			strings.TrimSpace(string(rev)), base, pairs, workload, seed, seconds, tr, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		s := newSeries(label, note)
		if err := measure(ctx, dir, change, workload, pairs, seed, seconds, trace, s); err != nil {
			return err
		}
		all = append(all, s)
	}
	var rs []row
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

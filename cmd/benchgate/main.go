// Command benchgate turns `go test -bench` output into a pass/fail CI gate.
// benchstat renders deltas for humans; benchgate enforces machine-checkable
// invariants and exits non-zero when one breaks, so a perf regression fails
// the build instead of scrolling past in a log.
//
//	go test -run '^$' -bench Concurrent -cpu 1,4,8 -benchmem -count=3 ./internal/mindex | tee conc.txt
//	benchgate -scale-limit 1.5 -baseline bench/BENCH_BASELINE_6.txt -alloc-slack 1.5 -alloc-exclude Churn conc.txt
//
// Gates (each enabled by its flag):
//
//   - -scale-limit F: within the CURRENT run, for every benchmark family
//     measured at several GOMAXPROCS values (-cpu 1,4,8), the median ns/op
//     at the comparison proc count must be at most F x the median at the
//     lowest. Parallel benchmarks divide wall time by total ops, so
//     wait-free readers hold this ratio near or below 1 while a serialized
//     read path blows past it (the committed RWMutex curve,
//     bench/BENCH_RWMUTEX_6.txt, shows >3x). Both sides of the ratio come
//     from one run on one machine, so the gate needs no cross-machine
//     baseline — but it does need real cores: the comparison point is the
//     largest measured proc count that the machine actually has hardware
//     for (override with -scale-procs). Proc counts beyond the core count
//     measure scheduler oversubscription, not scaling, and families with
//     no usable multi-proc point are skipped with a note rather than
//     failed, so the gate degrades gracefully on small machines while
//     still biting on CI runners.
//
//   - -alloc-slack F (needs -baseline): median allocs/op per benchmark
//     must stay within max(F x baseline, baseline+2). Slack, not
//     equality, because parallel runs jitter by a few allocations.
//     -alloc-exclude RE skips benchmarks whose allocation counts are
//     interleaving-dependent by construction (the under-churn benchmarks
//     allocate in proportion to how fast the background writer runs,
//     which varies with hardware).
//
//   - -ns-ratio F (needs -baseline): median ns/op must stay within
//     F x baseline. Absolute times only compare within one machine, so
//     this gate is for local before/after runs, not for gating CI against
//     a baseline recorded elsewhere; CI leaves it off and relies on
//     -scale-limit.
//
//   - -speedup-min F (needs -speedup-base and -speedup-new): within the
//     CURRENT run, the median ns/op pooled over benchmarks matching
//     -speedup-base must be at least F x the median pooled over those
//     matching -speedup-new. This gates an in-run A/B pair — e.g. the
//     bulk builder against the incremental ingest baseline measured in
//     the same BenchmarkBulkLoad invocation — so, like -scale-limit, it
//     holds on any machine without a cross-machine baseline. Pick F below
//     the committed headline ratio: both sides jitter on loaded CI
//     runners, and the gate is for catching the optimization rotting
//     away, not for re-proving the paper number every push.
//
// A gate that finds nothing to check fails: an empty run means the bench
// regex or the baseline rotted, and a gate that silently checks nothing is
// worse than no gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// key identifies one benchmark configuration: the name with the -GOMAXPROCS
// suffix split off, and the proc count (1 when the suffix is absent).
type key struct {
	name  string
	procs int
}

// run is one benchmark line's metrics (value by unit).
type run map[string]float64

func main() {
	var (
		baseline     = flag.String("baseline", "", "baseline benchmark output for the -alloc-slack and -ns-ratio gates")
		scaleLimit   = flag.Float64("scale-limit", 0, "max ns/op(comparison procs) / ns/op(lowest procs) within the current run (0 = off)")
		scaleProcs   = flag.Int("scale-procs", 0, "proc count to compare against the lowest (0 = largest measured count this machine has cores for)")
		allocSlack   = flag.Float64("alloc-slack", 0, "max allocs/op as a multiple of baseline (0 = off)")
		allocExclude = flag.String("alloc-exclude", "", "regexp of benchmark names to skip in the alloc gate")
		nsRatio      = flag.Float64("ns-ratio", 0, "max ns/op as a multiple of baseline — same-machine runs only (0 = off)")
		speedupBase  = flag.String("speedup-base", "", "regexp of the slow side of the in-run speedup gate")
		speedupNew   = flag.String("speedup-new", "", "regexp of the fast side of the in-run speedup gate")
		speedupMin   = flag.Float64("speedup-min", 0, "min median ns/op ratio base/new within the current run (0 = off)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] current-bench-output.txt")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *scaleLimit == 0 && *allocSlack == 0 && *nsRatio == 0 && *speedupMin == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no gate enabled (set -scale-limit, -alloc-slack, -ns-ratio or -speedup-min)")
		os.Exit(2)
	}
	if (*allocSlack != 0 || *nsRatio != 0) && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -alloc-slack and -ns-ratio need -baseline")
		os.Exit(2)
	}
	if *speedupMin != 0 && (*speedupBase == "" || *speedupNew == "") {
		fmt.Fprintln(os.Stderr, "benchgate: -speedup-min needs -speedup-base and -speedup-new")
		os.Exit(2)
	}
	baseRE, err := compileOptional(*speedupBase)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: -speedup-base: %v\n", err)
		os.Exit(2)
	}
	newRE, err := compileOptional(*speedupNew)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: -speedup-new: %v\n", err)
		os.Exit(2)
	}
	exclude, err := compileOptional(*allocExclude)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: -alloc-exclude: %v\n", err)
		os.Exit(2)
	}

	current, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	var base map[key][]run
	if *baseline != "" {
		if base, err = parseFile(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	}

	failures, checked := 0, 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("FAIL  "+format+"\n", args...)
	}
	pass := func(format string, args ...any) {
		checked++
		fmt.Printf("ok    "+format+"\n", args...)
	}

	if *scaleLimit > 0 {
		scaleGate(current, *scaleLimit, *scaleProcs, pass, fail)
	}
	if *speedupMin > 0 {
		speedupGate(current, baseRE, newRE, *speedupMin, pass, fail)
	}
	if *allocSlack > 0 {
		gateAgainstBaseline(current, base, "allocs/op", exclude, func(k key, cur, b float64) {
			limit := max(b**allocSlack, b+2)
			line := fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (limit %.0f)", k, cur, b, limit)
			if cur > limit {
				fail("%s", line)
			} else {
				pass("%s", line)
			}
		}, fail)
	}
	if *nsRatio > 0 {
		gateAgainstBaseline(current, base, "ns/op", nil, func(k key, cur, b float64) {
			line := fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (limit %.2fx)", k, cur, b, *nsRatio)
			if cur > b**nsRatio {
				fail("%s", line)
			} else {
				pass("%s", line)
			}
		}, fail)
	}

	if failures > 0 {
		fmt.Printf("benchgate: %d of %d checks failed\n", failures, failures+checked)
		os.Exit(1)
	}
	fmt.Printf("benchgate: all %d checks passed\n", checked)
}

// scaleGate applies the within-run reader-scaling check to every benchmark
// family with a usable multi-proc measurement.
func scaleGate(current map[key][]run, limit float64, procsFlag int, pass, fail func(string, ...any)) {
	families, usable := 0, 0
	for _, name := range familyNames(current) {
		procs := familyProcs(current, name)
		if len(procs) < 2 {
			continue
		}
		families++
		lo := procs[0]
		hi := comparisonProcs(procs, procsFlag)
		if hi <= lo {
			fmt.Printf("skip  %s: measured at procs %v but this machine has %d CPUs — no scaling point to judge\n",
				name, procs, runtime.NumCPU())
			continue
		}
		usable++
		loNs := median(current[key{name, lo}], "ns/op")
		hiNs := median(current[key{name, hi}], "ns/op")
		ratio := hiNs / loNs
		line := fmt.Sprintf("%s: ns/op @%d procs / @%d procs = %.2f (limit %.2f)", name, hi, lo, ratio, limit)
		if ratio > limit {
			fail("%s — read path serializes as procs grow", line)
		} else {
			pass("%s", line)
		}
	}
	if families == 0 {
		fail("scale gate: no benchmark family measured at multiple proc counts — was -cpu 1,4,8 dropped?")
	} else if usable == 0 {
		fmt.Printf("note  scale gate: %d families skipped — rerun on a machine with more cores for a meaningful curve\n", families)
	}
}

// speedupGate checks the in-run A/B ratio: median ns/op over benchmarks
// matching baseRE divided by the median over those matching newRE must be
// at least minRatio. Both sides come from one run on one machine, so the
// gate carries across hardware; a side that matches nothing fails loudly.
func speedupGate(current map[key][]run, baseRE, newRE *regexp.Regexp, minRatio float64, pass, fail func(string, ...any)) {
	pool := func(re *regexp.Regexp) (float64, []string) {
		var vals []float64
		var names []string
		for _, k := range sortedKeys(current) {
			if !re.MatchString(k.name) {
				continue
			}
			for _, r := range current[k] {
				if v, ok := r["ns/op"]; ok {
					vals = append(vals, v)
				}
			}
			names = append(names, k.String())
		}
		sort.Float64s(vals)
		n := len(vals)
		switch {
		case n == 0:
			return 0, names
		case n%2 == 1:
			return vals[n/2], names
		default:
			return (vals[n/2-1] + vals[n/2]) / 2, names
		}
	}
	baseNs, baseNames := pool(baseRE)
	newNs, newNames := pool(newRE)
	if len(baseNames) == 0 || baseNs == 0 {
		fail("speedup gate: -speedup-base %q matched no ns/op results", baseRE)
		return
	}
	if len(newNames) == 0 || newNs == 0 {
		fail("speedup gate: -speedup-new %q matched no ns/op results", newRE)
		return
	}
	ratio := baseNs / newNs
	line := fmt.Sprintf("speedup: %s (%.0f ns/op) / %s (%.0f ns/op) = %.2fx (min %.2fx)",
		strings.Join(baseNames, ","), baseNs, strings.Join(newNames, ","), newNs, ratio, minRatio)
	if ratio < minRatio {
		fail("%s — below the floor", line)
	} else {
		pass("%s", line)
	}
}

// comparisonProcs picks the proc count to put on top of the scaling ratio:
// the explicit -scale-procs when given, else the largest measured count the
// machine has hardware parallelism for.
func comparisonProcs(procs []int, procsFlag int) int {
	if procsFlag > 0 {
		best := procs[0]
		for _, p := range procs {
			if p <= procsFlag {
				best = p
			}
		}
		return best
	}
	best := procs[0]
	for _, p := range procs {
		if p <= runtime.NumCPU() {
			best = p
		}
	}
	return best
}

// gateAgainstBaseline runs check on the median of unit for every benchmark
// configuration present in both runs, and fails outright when the overlap is
// empty — a baseline that matches nothing gates nothing.
func gateAgainstBaseline(current, base map[key][]run, unit string, exclude *regexp.Regexp, check func(k key, cur, b float64), fail func(string, ...any)) {
	matched := 0
	for _, k := range sortedKeys(current) {
		if exclude != nil && exclude.MatchString(k.name) {
			continue
		}
		bruns, ok := base[k]
		if !ok || !hasUnit(bruns, unit) || !hasUnit(current[k], unit) {
			continue
		}
		matched++
		check(k, median(current[k], unit), median(bruns, unit))
	}
	if matched == 0 {
		fail("%s gate: no benchmark present in both current run and baseline", unit)
	}
}

func compileOptional(expr string) (*regexp.Regexp, error) {
	if expr == "" {
		return nil, nil
	}
	return regexp.Compile(expr)
}

func (k key) String() string {
	if k.procs == 1 {
		return k.name
	}
	return fmt.Sprintf("%s-%d", k.name, k.procs)
}

func familyNames(m map[key][]run) []string {
	var names []string
	for k := range m {
		if !slices.Contains(names, k.name) {
			names = append(names, k.name)
		}
	}
	sort.Strings(names)
	return names
}

func familyProcs(m map[key][]run, name string) []int {
	var procs []int
	for k := range m {
		if k.name == name {
			procs = append(procs, k.procs)
		}
	}
	sort.Ints(procs)
	return procs
}

func sortedKeys(m map[key][]run) []key {
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].procs < keys[j].procs
	})
	return keys
}

func hasUnit(runs []run, unit string) bool {
	for _, r := range runs {
		if _, ok := r[unit]; ok {
			return true
		}
	}
	return false
}

// median is the middle value of unit across a configuration's -count runs —
// the robust center benchstat also uses, immune to one noisy run.
func median(runs []run, unit string) float64 {
	var vals []float64
	for _, r := range runs {
		if v, ok := r[unit]; ok {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func parseFile(path string) (map[key][]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return m, nil
}

// parse collects benchmark result lines, grouped by (name, procs), one run
// entry per line (-count runs accumulate).
func parse(in io.Reader) (map[key][]run, error) {
	out := make(map[key][]run)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		k, r, ok := parseResult(line)
		if !ok {
			continue
		}
		out[k] = append(out[k], r)
	}
	return out, sc.Err()
}

// parseResult parses one result line:
//
//	BenchmarkName-8   8895   58069 ns/op   160772 B/op   2 allocs/op
//
// The -N suffix is the GOMAXPROCS count (1 when absent, as `go test` omits
// it for -cpu 1); metrics are (value, unit) pairs after the iteration count.
func parseResult(line string) (key, run, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return key{}, nil, false
	}
	k := key{name: fields[0], procs: 1}
	if i := strings.LastIndex(k.name, "-"); i > 0 {
		if p, err := strconv.Atoi(k.name[i+1:]); err == nil {
			k.name, k.procs = k.name[:i], p
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return key{}, nil, false
	}
	r := make(run)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return key{}, nil, false
		}
		r[fields[i+1]] = v
	}
	return k, r, true
}

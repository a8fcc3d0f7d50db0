// Command benchmark is the repository's benchmark: it hosts the whole system
// in one process over loopback (servers, coordinator, authorised client,
// gateway), offers each workload's load from at most two sender goroutines,
// checks every answer, and prints every metric of ../BENCHMARK.json by name.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// logOut receives the per-metric lines and the budget tables, diagOut the
// progress notes.
var (
	logOut  io.Writer = os.Stdout
	diagOut io.Writer = os.Stderr
)

// A bounded metric is one end-to-end metric of BENCHMARK.json with the share
// of the parent's median by which it may get worse.
type bounded struct {
	name   string
	bound  float64
	higher bool // better when higher
}

// endToEnd lists the end-to-end metrics in the order they are printed;
// TestBenchmarkJSON keeps it equal to ../BENCHMARK.json.
var endToEnd = []bounded{
	{"setup_s", 0.25, false},
	{"query_p50_ms", 0.25, false},
	{"query_sat_qps", 0.25, true},
	{"write_p50_ms", 0.25, false},
	{"recall_at_k", 0.05, true},
	{"comm_kb_per_query", 0.05, false},
	{"stored_bytes_per_entry", 0.05, false},
	{"peak_rss_mb", 0.20, false},
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

// defaultSeconds is the run_seconds of ../BENCHMARK.json.
const defaultSeconds = 40

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool
	outDir  string // where traced runs write trace_<workload>.json
	tmpDir  string // scratch space for bucket files and logs
}

// runWorkload performs one run of one workload in a scratch directory of its
// own and removes the directory afterwards.
func runWorkload(s *spec, o options) (*result, error) {
	if o.tiny {
		s = s.tiny()
	}
	dir, err := os.MkdirTemp(o.tmpDir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Reset the process's peak-RSS mark, so that peak_rss_mb is this run's
	// own when several runs share the process. Where the kernel refuses, the
	// figure is the process's so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	r := &runner{spec: s, seed: o.seed, seconds: o.seconds, dir: dir}
	var res *result
	if o.trace {
		res, err = r.traced(o.outDir)
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if msg := r.firstErr.Load(); msg != nil {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed; first: %s\n", s.name, res.Failed, res.Attempted, *msg)
	}
	return res, nil
}

// environment describes where the numbers were taken; it is attached to
// every entry of the -out file.
func environment() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s shared 2-CPU container",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit)
}

// writeOut writes the results in the name / value / unit / extra shape.
func writeOut(path string, results []*result) error {
	env := environment()
	type entry struct {
		Tool    string        `json:"tool"`
		Benches []measurement `json:"benches"`
	}
	var out entry
	out.Tool = "simcloud/benchmark"
	for _, res := range results {
		for _, m := range res.Metrics {
			m.Name = res.Workload + "/" + m.Name
			m.Extra = strings.TrimPrefix(m.Extra+"\n"+env, "\n")
			out.Benches = append(out.Benches, m)
		}
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// lastLine is the one JSON object the driver reads.
func lastLine(results []*result) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, res := range results {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, m := range res.Metrics {
			if !res.Traced && !isEndToEnd(m.Name) {
				continue // printed above for the reader, not part of BENCHMARK.json
			}
			name := m.Name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	blob, _ := json.Marshal(out) // cannot fail: numbers and strings
	return string(blob), out.Correct
}

// compareRepeats prints, per workload and end-to-end metric, the value of
// every repeat, the largest relative difference from the first and the
// bound, and reports whether every difference is within its bound.
func compareRepeats(runs [][]*result) bool {
	ok := true
	for wi, first := range runs[0] {
		for _, m := range endToEnd {
			base := first.value(m.name)
			var worst float64
			values := make([]string, len(runs))
			for ri, run := range runs {
				v := run[wi].value(m.name)
				values[ri] = fmt.Sprintf("%.6g", v)
				worst = max(worst, math.Abs(v-base)/math.Abs(base))
			}
			verdict := "ok"
			if worst > m.bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(logOut, "repeat %s %s %s diff %.4f bound %.2f %s\n",
				first.Workload, m.name, strings.Join(values, " "), worst, m.bound, verdict)
		}
	}
	return ok
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Uint64("seed", 2012, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed window of a run")
	traceFlag := flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the measuring run (end-to-end metrics)")
	out := flag.String("out", "", "also write the results to this JSON file")
	repeat := flag.Int("repeat", 1, "run the suite this many times and compare the end-to-end metrics with their bounds")
	scale := flag.String("scale", "full", "full, or tiny for a smoke run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*scale != "full" && *scale != "tiny") || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	chosen := specs
	if *workload != "" {
		s, err := specByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		chosen = []*spec{s}
	}
	// Run from the repository root (as the driver does) or from this
	// directory; everything written stays under the current directory.
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, tiny: *scale == "tiny", outDir: "out"}
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		o.outDir = filepath.Join("benchmark", "out")
	}
	o.tmpDir = filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var runs [][]*result
	var all []*result
	for range *repeat {
		var results []*result
		for _, s := range chosen {
			res, err := runWorkload(s, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, m := range res.Metrics {
				fmt.Fprintf(logOut, "%s %s %.6g %s", res.Workload, m.Name, m.Value, m.Unit)
				if m.Extra != "" {
					fmt.Fprintf(logOut, "  # %s", m.Extra)
				}
				fmt.Fprintln(logOut)
			}
			results = append(results, res)
		}
		runs = append(runs, results)
		all = append(all, results...)
	}
	within := *repeat == 1 || o.trace || compareRepeats(runs)
	if *out != "" {
		if err := writeOut(*out, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	line, correct := lastLine(runs[len(runs)-1])
	fmt.Println(line)
	if !correct || !within {
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/gateway"
	"simcloud/internal/metric"
)

// A measurement is one reported metric. The JSON shape is the
// name / value / unit / extra of github-action-benchmark (SNIPPETS.md §2).
type measurement struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Metrics   []measurement
}

func (r *result) add(name string, value float64, unit, extra string) {
	r.Metrics = append(r.Metrics, measurement{Name: name, Value: value, Unit: unit, Extra: extra})
}

func (r *result) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// runner carries one run: the workload, its inputs, the deployment under
// test and the tally of operations checked.
type runner struct {
	spec    *spec
	seed    uint64
	seconds float64
	dir     string // scratch directory of this run
	began   time.Time

	in  *inputs
	dep *deployment
	ops []readOp

	// answers[i] is the first answer seen for read-stream element i. While
	// the collection does not change every later answer must equal it.
	answersMu sync.Mutex
	answers   [][]hit

	// Write stream state (see write): how many of the oldest objects have
	// been deleted and acknowledged, and how many of in.extra were inserted
	// and acknowledged.
	deleted  atomic.Uint64
	inserted atomic.Uint64

	httpClients [2]*http.Client
	bodies      [][]byte // JSON request per read-stream element (gateway workloads)
	respBytes   atomic.Int64
	respCount   atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

// stage notes on standard error how far into the run a step ended, so that a
// run that is slower than its budget shows where.
func (r *runner) stage(name string) {
	if r.began.IsZero() {
		r.began = time.Now()
	}
	fmt.Fprintf(diagOut, "# %s: %s at %.1fs\n", r.spec.name, name, time.Since(r.began).Seconds())
}

func (r *runner) fail(format string, args ...any) bool {
	r.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	r.firstErr.CompareAndSwap(nil, &msg)
	return false
}

// extraNeeded is how many never-indexed objects a run of the given length
// can consume: every write operation of the writer or of the cycles' probes
// inserts a batch, and a traced run streams its ingest chunks on top.
func (s *spec) extraNeeded(seconds float64) int {
	writes := int(s.writeRate*seconds) + cycles*probeWrites
	return (writes+1)*writeBatch + s.tracedChunks*streamChunk
}

// prepare generates the inputs, computes the oracle's answers and sets the
// system up rounds times, keeping the last deployment. It returns the
// per-round set-up, load and recovery times.
func (r *runner) prepare(rounds int) (setup, load, recovery []float64, err error) {
	s := *r.spec
	s.extra = s.extraNeeded(r.seconds)
	r.spec = &s
	// The oracle is the harness's own work: it is computed once, from inputs
	// generated for it, and kept out of the set-up time.
	if r.in, err = generate(r.spec, r.seed); err != nil {
		return nil, nil, nil, err
	}
	r.ops = readStream(r.spec, r.in, r.in.objs)
	r.answers = make([][]hit, len(r.ops))
	for round := range rounds {
		begin := time.Now()
		if r.in, err = generate(r.spec, r.seed); err != nil {
			return nil, nil, nil, err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("round-%d", round))
		if r.dep, err = start(r.spec, r.in, dir); err != nil {
			return nil, nil, nil, err
		}
		loadBegin := time.Now()
		if _, err = r.dep.client.InsertStream(r.in.objs); err != nil {
			return nil, nil, nil, fmt.Errorf("loading: %w", err)
		}
		load = append(load, time.Since(loadBegin).Seconds())
		took, err := r.dep.crashAndRecover(r.ops[0].q)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("recovery: %w", err)
		}
		recovery = append(recovery, took.Seconds())
		if sum := sumInts(r.dep.live()); sum != r.spec.replicas*r.spec.n {
			return nil, nil, nil, fmt.Errorf("%d entries live after recovery, want %d x %d", sum, r.spec.replicas, r.spec.n)
		}
		r.connectSenders()
		for i := range warmQueries {
			if !r.read(i%2, i) {
				return nil, nil, nil, fmt.Errorf("warm-up query failed: %s", *r.firstErr.Load())
			}
		}
		setup = append(setup, time.Since(begin).Seconds())
		if round < rounds-1 {
			// The round's files stay until the run ends (see crashAndRecover).
			if err = r.dep.close(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	r.attempted.Store(0)
	return setup, load, recovery, nil
}

func sumInts(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

// connectSenders gives each of the two senders its own HTTP connection and
// encodes the request bodies once, outside the timed phases.
func (r *runner) connectSenders() {
	if !r.spec.gateway {
		return
	}
	for i := range r.httpClients {
		r.httpClients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	if r.bodies != nil {
		return
	}
	r.bodies = make([][]byte, len(r.ops))
	for i, op := range r.ops {
		r.bodies[i], _ = json.Marshal(gateway.SearchRequest{ // cannot fail: plain numbers and strings
			Kind: op.q.Kind.String(), Vec: op.q.Vec, K: op.q.K, Radius: op.q.Radius, CandSize: op.q.CandSize,
		})
	}
}

func (r *runner) closeSenders() {
	for _, c := range r.httpClients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// search sends read-stream element qi the way the workload's users do:
// through the gateway when there is one, else through the authorised client.
func (r *runner) search(w, qi int) ([]hit, error) {
	if !r.spec.gateway {
		res, _, err := r.dep.client.Search(context.Background(), r.ops[qi].q)
		return hitsOf(res), err
	}
	req, err := http.NewRequest(http.MethodPost, r.dep.gwURL+"/v1/search", bytes.NewReader(r.bodies[qi]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", apiKey)
	resp, err := r.httpClients[w].Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gateway answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sr gateway.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	if sr.Degraded {
		return nil, fmt.Errorf("gateway shed the query to cand_size %d", sr.CandSize)
	}
	r.respBytes.Add(int64(len(body)))
	r.respCount.Add(1)
	out := make([]hit, len(sr.Results))
	for i, h := range sr.Results {
		out[i] = hit{ID: h.ID, Dist: h.Dist}
	}
	return out, nil
}

// read performs element i of the read stream and judges the answer: exact
// kinds against brute force; approximate kinds against the first answer the
// same query got (identical while nothing is written) or, beside a writer,
// against the deletions acknowledged before the query went out.
func (r *runner) read(w, i int) bool {
	qi := r.in.order[i%len(r.ops)]
	r.attempted.Add(1)
	deletedBefore := r.deleted.Load()
	got, err := r.search(w, qi)
	if err != nil {
		return r.fail("read %d: %v", i, err)
	}
	op := r.ops[qi]
	switch {
	case r.spec.exact:
		if !slices.Equal(got, op.truth) {
			return r.fail("read %d (%v): answer differs from brute force", i, op.q.Kind)
		}
	case r.spec.writeRate > 0:
		for _, h := range got {
			if h.ID < deletedBefore {
				return r.fail("read %d: object %d returned after its deletion was acknowledged", i, h.ID)
			}
		}
	default:
		r.answersMu.Lock()
		first := r.answers[qi]
		if first == nil {
			r.answers[qi] = got
		}
		r.answersMu.Unlock()
		if first != nil && !slices.Equal(got, first) {
			return r.fail("read %d: answer differs from the one query %d got before", i, qi)
		}
	}
	return true
}

// write performs one element of the write stream: it inserts the next
// writeBatch never-indexed objects and then deletes the writeBatch oldest live
// objects, so the live size stays where it was. Its latency is that of the
// pair; timing the two apart would give a median that sits between two modes.
func (r *runner) write(_, i int) bool {
	r.attempted.Add(1)
	ctx := context.Background()
	at := int(r.inserted.Load())
	if at+writeBatch > len(r.in.extra) {
		return r.fail("write %d: out of objects to insert", i)
	}
	if _, err := r.dep.client.InsertContext(ctx, r.in.extra[at:at+writeBatch]); err != nil {
		return r.fail("write %d: %v", i, err)
	}
	r.inserted.Add(writeBatch)
	at = int(r.deleted.Load())
	n, _, err := r.dep.client.DeleteContext(ctx, r.in.all[at:at+writeBatch])
	if err != nil {
		return r.fail("write %d: %v", i, err)
	}
	if n != writeBatch {
		return r.fail("write %d: %d of %d objects deleted", i, n, writeBatch)
	}
	r.deleted.Add(writeBatch)
	return true
}

// writeProbe times probeWrites write operations one after another on the
// otherwise idle system, then brings the oracle up to date with the
// collection they changed: brute force again for the exact kinds, and no
// first answers to compare with for the approximate ones.
func (r *runner) writeProbe() loopResult {
	res := loopResult{sent: probeWrites}
	for i := range probeWrites {
		sent := time.Now()
		r.write(0, i) // a failure is tallied by write
		res.lat = append(res.lat, time.Since(sent))
	}
	if r.spec.exact {
		r.ops = readStream(r.spec, r.in, r.liveObjects())
	}
	clear(r.answers)
	return res
}

// liveObjects is the collection as the acknowledged writes left it.
func (r *runner) liveObjects() []metric.Object {
	return r.in.all[r.deleted.Load() : uint64(len(r.in.objs))+r.inserted.Load()]
}

// quality sends every distinct query once through the authorised client and
// returns mean recall against brute force and mean bytes on the wire per
// query. It also runs the checks that need a quiet system.
func (r *runner) quality() (recallAtK, commBytes float64, err error) {
	live := r.liveObjects()
	if r.inserted.Load()+r.deleted.Load() > 0 {
		r.ops = readStream(r.spec, r.in, live)
	}
	ctx := context.Background()
	for qi, op := range r.ops {
		r.attempted.Add(1)
		res, costs, err := r.dep.client.Search(ctx, op.q)
		if err != nil {
			return 0, 0, fmt.Errorf("quality pass: %w", err)
		}
		got := hitsOf(res)
		if first := r.answers[qi]; r.spec.writeRate == 0 && first != nil && !slices.Equal(got, first) {
			r.fail("query %d: the client's answer differs from the one the load phases got", qi)
		}
		for _, h := range got {
			if h.ID < r.deleted.Load() {
				r.fail("query %d: deleted object %d returned", qi, h.ID)
			}
		}
		if r.spec.exact && !slices.Equal(got, op.truth) {
			r.fail("query %d (%v): answer differs from brute force", qi, op.q.Kind)
		}
		r.answers[qi] = got
		recallAtK += recall(got, op.truth)
		commBytes += float64(costs.CommBytes())
	}
	n := float64(len(r.ops))
	// Exact k-NN must equal brute force on every workload's final collection.
	checked := r.in.queries[:min(r.spec.exactChecks(), len(r.in.queries))]
	want := nearest(r.in.dist, live, checked, r.spec.k)
	for qi, vec := range checked {
		r.attempted.Add(1)
		res, _, err := r.dep.client.Search(ctx, core.Query{Kind: core.KindKNN, Vec: vec, K: r.spec.k})
		if err != nil {
			return 0, 0, fmt.Errorf("exact check: %w", err)
		}
		if !slices.Equal(hitsOf(res), want[qi]) {
			r.fail("exact k-NN %d differs from brute force", qi)
		}
	}
	// Every acknowledged insert must be findable: its own vector finds it at
	// distance 0.
	step := max(1, int(r.inserted.Load())/findChecks)
	for i := 0; i < int(r.inserted.Load()); i += step {
		o := r.in.extra[i]
		if o.ID < r.deleted.Load() {
			continue
		}
		r.attempted.Add(1)
		res, _, err := r.dep.client.Search(ctx, core.Query{Kind: core.KindKNN, Vec: o.Vec, K: 1})
		if err != nil {
			return 0, 0, fmt.Errorf("findability check: %w", err)
		}
		if len(res) != 1 || res[0].Dist != 0 {
			r.fail("inserted object %d is not found by its own vector", o.ID)
		}
	}
	return recallAtK / n, commBytes / n, nil
}

// checkAgainstReference loads the same objects into one reference server and
// requires the deployment's answers to equal its answers: same IDs, same
// distances, same order.
func (r *runner) checkAgainstReference() error {
	ref, err := r.reference()
	if err != nil {
		return err
	}
	defer ref.close()
	for qi, op := range r.ops {
		r.attempted.Add(1)
		res, _, err := ref.client.Search(context.Background(), op.q)
		if err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
		if !slices.Equal(hitsOf(res), r.answers[qi]) {
			r.fail("query %d: the cluster's answer differs from the reference server's", qi)
		}
	}
	return nil
}

// reference starts a single server with the workload's index configuration
// and loads the run's objects into it directly.
func (r *runner) reference() (*deployment, error) {
	s := *r.spec
	s.nodes, s.replicas, s.gateway = 1, 1, false
	ref, err := start(&s, r.in, filepath.Join(r.dir, "reference"))
	if err != nil {
		return nil, err
	}
	if _, err := ref.client.InsertStream(r.in.objs); err != nil {
		ref.close()
		return nil, fmt.Errorf("loading the reference server: %w", err)
	}
	return ref, nil
}

// window is what the timed window observed, cycle by cycle. Every cycle
// offers the same number of open-loop reads and of writes, so the c-th of
// `cycles` equal parts of open.lat and writes.lat is cycle c's.
type window struct {
	sat    []float64  // closed-loop correct answers per second
	open   loopResult // the cycles' open-loop reads, in arrival order
	writes loopResult // the cycles' write operations, in arrival order
}

// phases runs the timed window as `cycles` equal cycles: a closed loop that
// saturates the system for satShare of the cycle, then an open loop at the
// workload's fixed rate. Every timing is taken per cycle, so each rests on
// samples from the whole window (see quiet). Never more than two senders and
// two connections are at work: two readers, or one reader beside the writer,
// which follows its own schedule through the cycle. Without a writer each
// cycle begins with a serial probe of the write path.
func (r *runner) phases(total time.Duration) window {
	var win window
	runtime.GC() // start every timed window from a collected heap, whatever set-up left behind
	cycle := total / cycles
	closedFor := time.Duration(float64(cycle) * satShare)
	done := 0 // reads so far: each phase goes on where the one before stopped in the stream
	read := func(w, i int) bool { return r.read(w, done+i) }
	for range cycles {
		readers := 2
		var writer sync.WaitGroup
		if r.spec.writeRate == 0 {
			win.writes.add(r.writeProbe())
		} else {
			readers = 1
			writer.Add(1)
			go func() {
				defer writer.Done()
				win.writes.add(openLoop(cycle, r.spec.writeRate, 1, r.write))
			}()
		}
		closed := closedLoop(closedFor, readers, read)
		done += closed.sent
		win.sat = append(win.sat, closed.perSec)
		opened := openLoop(cycle-closedFor, r.spec.readQPS, readers, read)
		done += opened.sent
		win.open.add(opened)
		writer.Wait()
	}
	return win
}

// untraced is the measuring run: set-ups, the closed-loop and open-loop
// phases, then the checks on the quiet system. It reports every end-to-end
// metric.
func (r *runner) untraced() (*result, error) {
	res := &result{Workload: r.spec.name}
	r.stage("start")
	setup, load, recovery, err := r.prepare(r.spec.rounds)
	if err != nil {
		return nil, err
	}
	r.stage("set-ups")
	defer func() { r.closeSenders(); r.dep.close() }()
	rounds := fmt.Sprintf("median of %d set-ups: %s", len(setup), floats(setup))
	res.add("setup_s", median(setup), "s", rounds)
	eps := make([]float64, len(load))
	for i, l := range load {
		eps[i] = float64(r.spec.n) / l
	}
	// Parts of setup_s, printed for the reader. They are not end-to-end
	// metrics of BENCHMARK.json: on disk buckets both are bound by file-system
	// calls, which the shared machine's slow spells double, and no bound of
	// 0.25 can hold that (README.md, "Departures").
	res.add("load.ingest_eps", median(eps), "entries/s",
		fmt.Sprintf("n=%d streamed to %d owner(s) each; median of %d loads: %s", r.spec.n, r.spec.replicas, len(eps), floats(eps)))
	res.add("load.recovery_s", median(recovery), "s",
		fmt.Sprintf("%d node(s) one after another; median of %d recoveries: %s", r.spec.nodes, len(recovery), floats(recovery)))

	if r.spec.reference {
		// While nothing has been written: every distinct query once through
		// the front door, then the same at the reference server.
		for i := range r.ops {
			r.read(i%2, i)
		}
		if err := r.checkAgainstReference(); err != nil {
			return nil, err
		}
		r.stage("reference check")
	}

	win := r.phases(time.Duration(r.seconds * float64(time.Second)))
	r.stage("timed window")
	res.addTimings(r.spec, &win)

	liveSum := sumInts(r.dep.live())
	if want := r.spec.replicas * r.spec.n; liveSum != want {
		r.fail("%d entries live after the writes, want %d", liveSum, want)
	}
	recallAtK, comm, err := r.quality()
	if err != nil {
		return nil, err
	}
	r.stage("quality pass")
	res.add("recall_at_k", recallAtK, "fraction", fmt.Sprintf("k=%d, %d queries", r.spec.k, len(r.ops)))
	res.add("comm_kb_per_query", comm/1000, "KB", "mean Costs.CommBytes() per query / 1000")
	stored := r.dep.memoryBytes()
	r.closeSenders()
	if err := r.dep.close(); err != nil {
		return nil, err
	}
	files, err := r.dep.fileBytes()
	if err != nil {
		return nil, err
	}
	stored += files
	res.add("stored_bytes_per_entry", float64(stored)/float64(liveSum), "B",
		fmt.Sprintf("%d bytes of buckets and logs for %d live entries on %d node(s)", stored, liveSum, r.spec.nodes))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.add("peak_rss_mb", rss, "MB", "VmHWM of the one process hosting every daemon and the generator")

	res.addLoadgen(win.open, win.writes) // not end-to-end metrics of BENCHMARK.json, printed for the reader
	res.Attempted, res.Failed = int(r.attempted.Load()), int(r.failed.Load())
	res.add("fail_ratio", float64(res.Failed)/float64(res.Attempted), "fraction",
		fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted))
	return res, nil
}

// addTimings reports the timed window's end-to-end timings, each the median
// over the cycles of the cycle's own figure: every one rests on samples from
// the whole window, and a slow spell of the shared machine that covers less
// than half of it moves none.
func (r *result) addTimings(s *spec, w *window) {
	r.add("query_sat_qps", median(w.sat), "q/s", "closed loop, per cycle: "+floats(w.sat))
	p50 := w.open.lat.parts(0.5, cycles)
	r.add("query_p50_ms", median(p50), "ms",
		fmt.Sprintf("open loop at %g q/s, %d samples, per cycle: %s", s.readQPS, len(w.open.lat), floats(p50)))
	written := w.writes.lat.parts(0.5, cycles)
	r.add("write_p50_ms", median(written), "ms",
		fmt.Sprintf("%d entries inserted, then %d deleted; %d samples, %s, per cycle: %s", writeBatch, writeBatch, len(w.writes.lat), writeMode(s), floats(written)))
}

// addLoadgen reports what the load phases say about the generator itself and
// about the tails too thin to gate.
func (r *result) addLoadgen(open, writes loopResult) {
	r.add("loadgen.late_p99_ms", ms(open.late.percentile(0.99)), "ms", "")
	r.add("loadgen.sent", float64(open.sent+writes.sent), "count", "open-loop operations")
	r.add("loadgen.query_p90_ms", median(open.lat.parts(0.9, cycles)), "ms", "median of the cycles' p90")
	r.add("loadgen.query_p99_ms", median(open.lat.parts(0.99, cycles)), "ms", "median of the cycles' p99")
	r.add("loadgen.query_p999_ms", ms(open.lat.percentile(0.999)), "ms", "")
	r.add("loadgen.query_max_ms", ms(open.lat.percentile(1)), "ms", "")
	r.add("loadgen.write_p99_ms", median(writes.lat.parts(0.99, cycles)), "ms", "median of the cycles' p99")
}

func writeMode(s *spec) string {
	if s.writeRate > 0 {
		return fmt.Sprintf("open loop at %g operations/s beside the reads", s.writeRate)
	}
	return "serial, at the start of each cycle"
}

func floats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

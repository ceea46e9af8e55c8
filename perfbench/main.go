// Command perfbench is the repository's benchmark of record. It builds a
// graph from a seed, boots cmd/ftserve on it three times as a child
// process on loopback, drives each boot open-loop over at most two
// keep-alive connections,
// checks a sample of the served answers against an independent slow
// twin, and prints every metric by name with its unit. The last line of
// its output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Run it through perfbench/run.sh from the repository root, which builds
// ftserve and this harness from the same checkout:
//
//	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare .perfbench/results-A .perfbench/results-B
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the same load, then reports the per-layer metrics from /metrics
// deltas and an in-process replay of each layer, writes a span file, and
// reconciles the set-up spans with the measured set-up time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ftspanner/internal/core"
	"ftspanner/internal/graph"
)

const (
	// boots is how many times a run boots ftserve. Each boot serves its
	// own warm-up, timed window and write probe; setup_s and the latency
	// figures are medians over the boots, so that neither one process's
	// state nor one stretch of a noisy host decides a run.
	boots = 3
	// verifySamples is how many served answers of each boot's timed window
	// the twin re-derives.
	verifySamples = 128
	// warmupCap bounds the warm-up of a boot, and gcSettle is how long
	// after the start of ftserve's first collection since ready the
	// warm-up goes on (see load).
	warmupCap = 8 * time.Second
	gcSettle  = 250 * time.Millisecond
	// warmupRate is the read rate of the warm-up, as a multiple of the
	// nominal rate. The warm-up runs after the pool warm-up and before each
	// timed window, for the workload's warmup time.
	warmupRate = 2
	// A timed window is valid when the generator woke for its sends with
	// a p99 lateness under lateCeiling and the host (on a virtual machine)
	// stole at most stealCeiling of the CPU during it. An invalid window
	// measures the generator or the neighbours, not the server, and is run
	// again, up to timedAttempts times in all; on the reference machine
	// windows with more steal than this read a p99 50-100% higher.
	lateCeiling   = time.Millisecond
	stealCeiling  = 0.015
	timedAttempts = 2
	// retryBudget is how long after its start a run may still re-run a
	// window or a ladder rung, so that a run on a noisy host, traced or
	// not, ends well within three minutes.
	retryBudget = 105 * time.Second
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	work := fs.String("work", ".perfbench", "directory for builds, run files, spans and results")
	ftserve := fs.String("ftserve", "", "ftserve binary built from the tree under test")
	name := fs.String("workload", "", "workload: query-hot or query-cold")
	seed := fs.Int64("seed", 1, "seed of the generated graph and of every request stream")
	seconds := fs.Int("seconds", 10, "length of the timed windows in seconds, split over the boots")
	trace := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	results := fs.String("results", "", "directory for result files (default <work>/results)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *results == "" {
		*results = filepath.Join(*work, "results")
	}
	if fs.Arg(0) == "compare" {
		os.Exit(compareMain(fs.Args()[1:]))
	}
	w, ok := workloads[*name]
	if !ok || *ftserve == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (query-hot|query-cold), -ftserve, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &runner{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		ftserve: *ftserve, work: *work, resultsDir: *results,
		res: &result{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Env: currentEnv(),
			Phases: map[string]*phaseCount{}, Metrics: map[string]metric{}, Samples: map[string]int{}, Valid: true},
		tr: &tracer{start: time.Now()},
	}
	os.Exit(r.main())
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is the stamp that compare mode insists on matching.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnv() env {
	return env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// result is what a run writes to its result file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Env       env                    `json:"env"`
	Time      string                 `json:"time"`
	Correct   bool                   `json:"correct"`
	Valid     bool                   `json:"valid"`
	Invalid   []string               `json:"invalid,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Phases    map[string]*phaseCount `json:"phases"`
	Metrics   map[string]metric      `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
}

type runner struct {
	w          *workload
	seed       int64
	window     time.Duration
	traced     bool
	ftserve    string
	work       string
	resultsDir string
	dir        string

	res *result
	tr  *tracer

	graphPath string
	n, m      int
	twin      *twin
	pool      []query
	// probes holds each boot's write-probe batches, encoded. Every boot
	// starts from the generated graph, so each list is valid on its own.
	probes  [][][]byte
	conns   []*conn
	srv     *server
	answers []answer
	// timedQueries is the read stream of the timed windows, which the
	// traced run replays in-process.
	timedQueries []query

	// What each boot measured; the reported figures are taken over these.
	boots    []bootResult
	spannerM int
}

// bootResult is what one boot measured.
type bootResult struct {
	setup, rss float64   // s, MB
	reads      []float64 // the kept timed window's read latencies, sorted, us
	batches    []float64 // the probe's batch latencies, sorted, ms
	// A window or probe is invalid when the host stole more than
	// stealCeiling of the CPU during it or, for a window, the generator
	// ran late; each says why.
	readsInvalid, probeInvalid []string
	late, steal                float64 // the kept window's lateness p99 (us) and stolen share
}

func (r *runner) set(name, unit string, v float64) { r.res.Metrics[name] = metric{v, unit} }

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Problems = append(r.res.Problems, msg)
	fmt.Println("perfbench: PROBLEM:", msg)
}

func (r *runner) main() int {
	r.dir = filepath.Join(r.work, "runs", fmt.Sprintf("%s-s%d-t%d-%d", r.w.name, r.seed, r.res.Trace, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	err := r.run()
	if r.srv != nil {
		if serr := r.srv.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stop ftserve: %w", serr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Fprintln(os.Stderr, "perfbench: run files kept in", r.dir)
		return 1
	}
	os.RemoveAll(r.dir)
	return r.report()
}

func (r *runner) run() error {
	fmt.Printf("perfbench: %s seed=%d window=%s traced=%v nproc=%d GOMAXPROCS=%d %s\n",
		r.w, r.seed, r.window, r.traced, r.res.Env.NumCPU, r.res.Env.GOMAXPROCS, r.res.Env.GoVersion)
	if err := r.prepare(); err != nil {
		return err
	}
	for i := 0; i < boots; i++ {
		if err := r.session(i); err != nil {
			return err
		}
	}
	r.summarise()
	r.verify()
	if r.traced {
		return r.replay()
	}
	return nil
}

// prepare generates the graph from the seed, writes it for ftserve, and
// keeps only the benchmark's own twin of it.
func (r *runner) prepare() error {
	g, err := r.w.makeGraph(r.seed)
	if err != nil {
		return err
	}
	r.n, r.m = g.N(), g.M()
	r.graphPath = filepath.Join(r.dir, "graph.txt")
	f, err := os.Create(r.graphPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graph.Write(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.twin = newTwin(g.N(), g.Weighted())
	for _, e := range g.Edges() {
		r.twin.add(e.U, e.V, e.W)
	}
	rows, cols := r.w.gridShape(g.N())
	if r.w.hotPool {
		r.pool = makePool(rand.New(rand.NewSource(r.seed+1)), rows, cols)
	}
	// Each boot posts its own batches, drawn from a generator that starts
	// from the generated graph again.
	for i := 0; i < boots; i++ {
		churn := newChurnGen(r.rng(fmt.Sprintf("probe-%d", i)), g, rows, cols)
		encoded := make([][]byte, r.w.probe)
		for j := range encoded {
			encoded[j], _ = json.Marshal(churn.next(r.w.dels, r.w.ins)) // plain structs: cannot fail
		}
		r.probes = append(r.probes, encoded)
	}
	return nil
}

// session boots ftserve for the i-th time on a fresh write-ahead-log
// directory, drives it through its share of the load and stops it.
func (r *runner) session(i int) error {
	walDir := filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
	sp := r.tr.begin("setup.boot", 0)
	srv, err := bootServer(r.ftserve, filepath.Join(r.dir, fmt.Sprintf("ftserve-%d.log", i)),
		r.w.serverArgs(r.graphPath, walDir), 170*time.Second)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.srv = srv
	r.boots = append(r.boots, bootResult{setup: srv.setup.Seconds()})
	r.conns = []*conn{newConn(srv.addr), newConn(srv.addr)}
	defer func() {
		for _, c := range r.conns {
			if c.c != nil {
				c.close()
			}
		}
	}()
	if err := r.checkSpanner(); err != nil {
		return err
	}
	if err := r.load(i); err != nil {
		return err
	}
	r.srv = nil
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop ftserve: %w", err)
	}
	return os.RemoveAll(walDir)
}

// checkSpanner reads the served spanner's size at ready and checks it
// against the paper's bound and against the earlier boots.
func (r *runner) checkSpanner() error {
	st, err := r.srv.stats(r.conns[0])
	if err != nil {
		return err
	}
	if st.N != r.n || st.M != r.m {
		r.problem("ftserve holds n=%d m=%d, the generated graph has n=%d m=%d", st.N, st.M, r.n, r.m)
	}
	bound := core.SizeBound(r.n, r.w.k, r.w.f)
	if float64(st.SpannerM) > bound {
		r.problem("spanner has %d edges, over SizeBound(%d,%d,%d) = %.0f", st.SpannerM, r.n, r.w.k, r.w.f, bound)
	}
	if r.spannerM != 0 && st.SpannerM != r.spannerM {
		r.problem("boot %d built a spanner of %d edges, an earlier boot %d", len(r.boots)-1, st.SpannerM, r.spannerM)
	}
	r.spannerM = st.SpannerM
	return nil
}

// summarise sets the end-to-end figures from what the boots measured.
// setup_s, peak_rss_mb, the read p50 and p90 and the batch p99 are medians
// of the boots' values. The batch p50 is taken over the batches of the
// boots together, and so is the read p99, which needs every sample. The
// latency figures come from the valid windows and probes only, unless no
// boot had one: a window the host stole from measures the neighbours, not
// the server. The run is invalid when that fallback was needed.
func (r *runner) summarise() {
	var setups, rss, p50s, p90s, bp99s, reads, batches []float64
	var late, steal float64 // of the worst window used
	readBoots, noValidWindow := validBoots(r.boots, func(b *bootResult) []string { return b.readsInvalid })
	probeBoots, noValidProbe := validBoots(r.boots, func(b *bootResult) []string { return b.probeInvalid })
	for i := range r.boots {
		b := &r.boots[i]
		setups, rss = append(setups, b.setup), append(rss, b.rss)
		if readBoots[i] {
			p50s, p90s = append(p50s, quantile(b.reads, 0.5)), append(p90s, quantile(b.reads, 0.9))
			reads = append(reads, b.reads...)
			late, steal = max(late, b.late), max(steal, b.steal)
		}
		if probeBoots[i] {
			bp99s = append(bp99s, quantile(b.batches, 0.99))
			batches = append(batches, b.batches...)
		}
		for _, why := range slices.Concat(b.readsInvalid, b.probeInvalid) {
			fmt.Printf("perfbench: boot %d invalid, %s\n", i, why)
		}
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", median(rss))
	r.set("spanner_edges", "count", float64(r.spannerM))
	r.set("loadgen.send_late_p99_us", "us", late)
	r.set("host.steal_share", "ratio", steal)
	r.set("query_p50_us", "us", median(p50s))
	r.set("query_p90_us", "us", median(p90s))
	sort.Float64s(reads)
	// The plain p99, like the goodput, is printed and kept in the result
	// file but is not one of the bounded metrics: it does not repeat
	// between runs (BENCHMARK.md).
	r.set("query_p99_us", "us", quantile(reads, 0.99))
	r.res.Samples["query"] = len(reads)
	sort.Float64s(batches)
	r.set("batch_p50_ms", "ms", quantile(batches, 0.5))
	r.set("batch_p99_ms", "ms", median(bp99s))
	r.res.Samples["batch"] = len(batches)
	if noValidWindow {
		r.res.Invalid = append(r.res.Invalid, "no boot had a valid timed window")
	}
	if noValidProbe {
		r.res.Invalid = append(r.res.Invalid, "no boot had a valid write probe")
	}
	r.res.Valid = len(r.res.Invalid) == 0
	fmt.Printf("perfbench: per boot: setup %s s, peak RSS %s MB; windows used %v: read p50 %s us, p90 %s us; probes used %v: batch p99 %s ms\n",
		fmtList(setups), fmtList(rss), readBoots, fmtList(p50s), fmtList(p90s), probeBoots, fmtList(bp99s))
}

// validBoots reports which boots to take a figure from: those whose
// measurement was valid or, when none was, every boot (none is true).
func validBoots(boots []bootResult, invalid func(*bootResult) []string) (use []bool, none bool) {
	use = make([]bool, len(boots))
	none = true
	for i := range boots {
		use[i] = len(invalid(&boots[i])) == 0
		none = none && !use[i]
	}
	if none {
		for i := range use {
			use[i] = true
		}
	}
	return use, none
}

func stealNote(what string, steal float64) string {
	return fmt.Sprintf("%s: the host stole %.1f%% of the CPU, over the %.1f%% ceiling", what, 100*steal, 100*stealCeiling)
}

// median returns the median of xs: of an even count, the mean of the two
// middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}

// readStream builds an open-loop read stream at rate over dur on clients.
func (r *runner) readStream(rng *rand.Rand, rate float64, dur time.Duration, conns []*conn, keep func(int) bool) (*stream, []query) {
	sched := poissonSchedule(rng, rate, dur)
	qs := r.w.readMix(rng, r.pool, r.n, len(sched))
	return &stream{
		name: "query", sched: sched, conns: conns, keep: keep,
		request: func(i int) request { return request{path: qs[i].path()} },
	}, qs
}

// batchStream builds a closed-loop stream of the given encoded batches
// on c.
func batchStream(encoded [][]byte, c *conn) *stream {
	return &stream{
		name: "batch", sched: make([]time.Duration, len(encoded)), conns: []*conn{c}, closed: true,
		request: func(i int) request { return request{path: "/batch", body: encoded[i]} },
	}
}

func (r *runner) count(phase string, out []outcome) {
	p := r.res.Phases[phase]
	if p == nil {
		p = &phaseCount{}
		r.res.Phases[phase] = p
	}
	p.add(out)
}

// rng returns the deterministic generator of one named phase.
func (r *runner) rng(phase string) *rand.Rand {
	h := int64(0)
	for _, c := range phase {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(r.seed*1_000_003 + h))
}

// load drives the i-th boot: warm-up, the timed window, the write probe
// and, on the last boot, the goodput ladder. The traced run scrapes
// /metrics around the last boot's window and probe.
func (r *runner) load(i int) error {
	last := i == boots-1
	traced := r.traced && last
	// Warm-up: every hot-pool query once (the pool is cache-resident in
	// every timed window), then reads at warmupRate times the nominal rate.
	if r.w.hotPool {
		warm := &stream{name: "warm", sched: make([]time.Duration, len(r.pool)), conns: r.conns, closed: true,
			request: func(i int) request { return request{path: r.pool[i].path()} }}
		runStream(warm)
		r.count("warmup", warm.out)
	}
	// The reads go on past the workload's warm-up time until ftserve has
	// finished a collection that started after it became ready, and
	// gcSettle longer, so that every window finds ftserve at the same point
	// of its collection cycle: with the build's leftover heap collected,
	// and the next collection, at the nominal rate, well after the window.
	// Left to chance, that first collection fell inside some windows of
	// query-hot (a 1 GB heap) and not others, and moved their p50 by a
	// fifth.
	warm, _ := r.readStream(r.rng(fmt.Sprintf("warmup-%d", i)), warmupRate*r.w.readRate, warmupCap, r.conns, nil)
	warmStart := time.Now()
	warm.until = func() bool {
		ago, ok := r.srv.collectedSinceReady()
		return ok && ago >= gcSettle && time.Since(warmStart) >= r.w.warmup
	}
	runStream(warm)
	r.count("warmup", warm.out)
	if _, ok := r.srv.collectedSinceReady(); ok {
		fmt.Printf("perfbench: boot %d at %.1fs: warm-up %.1fs, first collection after ready at %.1fs after exec\n",
			i, time.Since(r.tr.start).Seconds(), time.Since(warmStart).Seconds(), time.Duration(r.srv.lastGC.Load()).Seconds())
	} else {
		fmt.Printf("perfbench: boot %d: no collection after ready within the %s warm-up cap\n", i, warmupCap)
	}

	// Timed window at the nominal rate: this boot's share of --seconds.
	var before, after promSample
	var err error
	if traced {
		if before, err = r.srv.metrics(r.conns[0]); err != nil {
			return err
		}
	}
	// A window the machine did not give the benchmark a fair share of is
	// discarded and run again, up to timedAttempts times in all.
	var reads *stream
	var qs []query
	b := &r.boots[i]
	for attempt := 0; attempt < timedAttempts; attempt++ {
		phase := fmt.Sprintf("timed-%d", i)
		if attempt > 0 {
			phase = fmt.Sprintf("timed-%d-retry-%d", i, attempt)
		}
		reads, qs = r.readStream(r.rng(phase), r.w.readRate, r.window/boots, r.conns, nil)
		stride := max(1, len(reads.sched)/verifySamples)
		reads.keep = func(i int) bool { return i%stride == 0 }
		sp := r.tr.begin("load.timed", 0)
		total0, steal0 := cpuTicks()
		runStream(reads)
		total1, steal1 := cpuTicks()
		r.tr.end(sp)
		if r.traced {
			r.tr.requests(sp, reads)
		}
		if attempt == 0 {
			r.count("timed", reads.out)
		} else {
			r.count("timed-retry", reads.out)
		}
		b.late = quantile(lateness(reads.out), 0.99)
		b.steal = ratio(steal1-steal0, total1-total0)
		b.readsInvalid = nil
		if time.Duration(b.late*float64(time.Microsecond)) > lateCeiling {
			b.readsInvalid = append(b.readsInvalid, fmt.Sprintf("window: generator lateness p99 %.0fus over the %s ceiling", b.late, lateCeiling))
		}
		if b.steal > stealCeiling {
			b.readsInvalid = append(b.readsInvalid, stealNote("window", b.steal))
		}
		if len(b.readsInvalid) == 0 || attempt == timedAttempts-1 || time.Since(r.tr.start) > retryBudget {
			break
		}
		fmt.Printf("perfbench: timed window %d of boot %d discarded: %s\n", attempt+1, i, strings.Join(b.readsInvalid, "; "))
	}
	if traced {
		if after, err = r.srv.metrics(r.conns[0]); err != nil {
			return err
		}
		r.queryMetrics(before, after)
	}
	b.reads = latencies(reads.out, time.Microsecond)
	r.collectAnswers(reads, qs)
	r.timedQueries = append(r.timedQueries, qs...)

	// Peak memory of the workload's reads: read before the write probe,
	// whose retained snapshots would dominate it on a 10^6 graph.
	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return err
	}
	b.rss = rss
	// The probe runs before the ladder, whose volume of reads depends on
	// where its search goes, so that every probe finds the server after
	// the same traffic.
	if err := r.writeProbe(i, traced); err != nil {
		return err
	}
	if last {
		t := time.Now()
		r.goodput()
		fmt.Printf("perfbench: goodput ladder took %.1fs\n", time.Since(t).Seconds())
	}
	return nil
}

// collectAnswers decodes the kept read responses for verification.
func (r *runner) collectAnswers(s *stream, qs []query) {
	for i := range s.out {
		o := &s.out[i]
		if o.body == nil || !o.ok() {
			continue
		}
		var resp struct {
			U, V      int
			Reachable bool
			Distance  float64
			Path      []int
			Epoch     uint64
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			r.problem("query %d: decode answer: %v", i, err)
			continue
		}
		q := qs[i]
		if resp.U != q.u || resp.V != q.v {
			r.problem("query %d asked (%d,%d), answer is for (%d,%d)", i, q.u, q.v, resp.U, resp.V)
			continue
		}
		r.answers = append(r.answers, answer{U: q.u, V: q.v, Faults: q.faults(), Cap: q.cap,
			Reachable: resp.Reachable, Dist: resp.Distance, Path: resp.Path, Epoch: resp.Epoch})
	}
}

// ladder is the fixed set of read rates, as multiples of the nominal rate,
// on which goodput is found: 1x to about 12x in steps of 5%.
var ladder = func() []float64 {
	var l []float64
	for x := 1.0; x <= 12; x *= 1.05 {
		l = append(l, x)
	}
	return l
}()

// rungDur is the length of one ladder rung.
const rungDur = time.Second

// goodput binary-searches the ladder for the highest rate at which the
// read p99 stays under the workload's limit, no request fails and no
// backlog is left at the end of the rung. A rung that fails is run once
// more and fails only if the second run fails too, so that one stall of
// the machine does not decide the search; a rung during which the host
// stole more than stealCeiling of the CPU decides nothing and is run
// again, within ladderBudget.
func (r *runner) goodput() {
	lo, hi := -1, len(ladder) // ladder[lo] passes, ladder[hi] fails
	deadline := time.Now().Add(ladderBudget)
	if end := r.tr.start.Add(retryBudget); end.Before(deadline) {
		deadline = end
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.rung(mid, deadline) {
			lo = mid
		} else {
			hi = mid
		}
	}
	best := 0.0
	if lo >= 0 {
		best = r.w.readRate * ladder[lo]
	}
	r.set("query_goodput_rps", "1/s", best)
}

// rungAttempts is how many counted runs of a rung must fail for it to fail.
const rungAttempts = 1

// ladderBudget bounds the time the ladder may spend re-running rungs the
// host stole from; past it every rung counts as run.
const ladderBudget = 5 * time.Second

// rung runs ladder rung i and reports whether it passed: a pass in one of
// rungAttempts attempts that count.
func (r *runner) rung(i int, deadline time.Time) bool {
	for attempt, counted := 0, 0; counted < rungAttempts; attempt++ {
		rate := r.w.readRate * ladder[i]
		reads, _ := r.readStream(r.rng(fmt.Sprintf("rung-%d-%d", i, attempt)), rate, rungDur, r.conns, nil)
		// Once more than 1% of the rung's requests are over the limit its
		// p99 is too, and the rung stops.
		reads.slow, reads.stopAfter = r.w.p99Limit, len(reads.sched)/100+2
		total0, steal0 := cpuTicks()
		runStream(reads)
		total1, steal1 := cpuTicks()
		r.count("ladder", reads.out)
		var pc phaseCount
		pc.add(reads.out)
		p99 := quantile(latencies(reads.out, time.Nanosecond), 0.99)
		steal := ratio(steal1-steal0, total1-total0)
		pass := pc.Failed == 0 && time.Duration(p99) <= r.w.p99Limit && drained(reads.out, r.w.p99Limit)
		fmt.Printf("perfbench: ladder %.0f rps: p99 %.0fus, %d failed, steal %.1f%%, pass=%v\n", rate, p99/1e3, pc.Failed, 100*steal, pass)
		if steal > stealCeiling && time.Now().Before(deadline) {
			continue
		}
		if pass {
			return true
		}
		counted++
	}
	return false
}

// writeProbe measures churn-batch acknowledgement latency after the reads
// of boot i are done: the boot's probe batches, posted back to back, each
// timed from its own send.
func (r *runner) writeProbe(i int, traced bool) error {
	var before, after promSample
	var err error
	if traced {
		if before, err = r.srv.metrics(r.conns[0]); err != nil {
			return err
		}
	}
	batches := batchStream(r.probes[i], r.conns[1])
	total0, steal0 := cpuTicks()
	runStream(batches)
	total1, steal1 := cpuTicks()
	if steal := ratio(steal1-steal0, total1-total0); steal > stealCeiling {
		r.boots[i].probeInvalid = []string{stealNote("probe", steal)}
	}
	if traced {
		if after, err = r.srv.metrics(r.conns[0]); err != nil {
			return err
		}
		r.applyMetrics(before, after)
	}
	r.count("probe", batches.out)
	r.boots[i].batches = latencies(batches.out, time.Millisecond)
	return nil
}

// verify re-derives the kept answers of the timed windows on the twin of
// the generated graph. No batch is posted before a boot's write probe and
// every boot starts from the same graph, so every answer must come from
// the epoch the servers booted at.
func (r *runner) verify() {
	sp := r.tr.begin("verify", 0)
	defer r.tr.end(sp)
	failed := 0
	for _, a := range r.answers {
		err := checkAnswer(r.twin, a, core.Stretch(r.w.k))
		if a.Epoch != r.answers[0].Epoch {
			err = fmt.Errorf("served at epoch %d, the window's first answer at %d", a.Epoch, r.answers[0].Epoch)
		}
		if err != nil {
			failed++
			if failed <= 5 {
				r.problem("verify: epoch %d: %v", a.Epoch, err)
			}
		}
	}
	r.res.Phases["verify"] = &phaseCount{Attempted: len(r.answers), Succeeded: len(r.answers) - failed, Failed: failed}
	r.res.Samples["verified"] = len(r.answers)
	if len(r.answers) == 0 {
		r.problem("verify: no answers were kept")
	}
}

// report prints every metric, writes the result file and prints the
// result line. It returns the exit code.
func (r *runner) report() int {
	res := r.res
	res.Time = time.Now().UTC().Format(time.RFC3339)
	for _, p := range res.Phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	errRatio := 0.0
	if res.Attempted > 0 {
		errRatio = float64(res.Failed) / float64(res.Attempted)
	}
	res.Metrics["error_ratio"] = metric{errRatio, "ratio"}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("metric %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	phases := make([]string, 0, len(res.Phases))
	for ph := range res.Phases {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		p := res.Phases[ph]
		fmt.Printf("phase %-13s attempted=%d succeeded=%d failed=%d status=%v\n", ph, p.Attempted, p.Succeeded, p.Failed, p.Status)
	}
	fmt.Printf("samples %v\n", res.Samples)
	for _, msg := range res.Invalid {
		fmt.Println("perfbench: run INVALID:", msg)
	}
	if r.traced {
		if err := r.writeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r.overhead()
	}
	if err := r.writeResult(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	wanted := endToEnd
	if r.traced {
		wanted = perLayer
	}
	line := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	ms := map[string]metric{}
	for _, name := range wanted {
		m, ok := res.Metrics[name]
		if !ok || math.IsNaN(m.Value) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			return 1
		}
		ms[name] = m
	}
	line["metrics"] = ms
	out, _ := json.Marshal(line) // maps of numbers and strings: cannot fail
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func (r *runner) writeResult() error {
	if err := os.MkdirAll(r.resultsDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.resultsDir, fmt.Sprintf("%s-s%d-t%d-%d.json", r.w.name, r.seed, r.res.Trace, time.Now().UnixNano()))
	return os.WriteFile(path, data, 0o644)
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists.
var endToEnd = []string{
	"setup_s", "query_p50_us", "query_p90_us",
	"batch_p50_ms", "batch_p99_ms", "peak_rss_mb", "spanner_edges",
}

package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 2*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 2000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 4000 {
		t.Fatalf("%d arrivals, want 4000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("offset %d = %v out of order or past the window", i, a[i])
		}
	}
}

// A server that stalls once must inflate the latency of the requests
// that were due during the stall, although their own round trips are
// fast: latency runs from the intended send time.
func TestLatencyFromIntendedSendTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	sched := make([]time.Duration, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
	}
	s := &stream{name: "query", sched: sched, conns: []*conn{c},
		request: func(int) request { return request{path: "/"} }}
	runStream(s)
	for i, o := range s.out {
		if !o.ok() {
			t.Fatalf("request %d failed: %v %d", i, o.err, o.status)
		}
	}
	// Request 5 was due 50ms in but could only be sent after the stall.
	o := s.out[5]
	if o.latency() < stall-60*time.Millisecond {
		t.Fatalf("request 5 latency %v, want about %v of stall charged", o.latency(), stall-50*time.Millisecond)
	}
	if rtt := o.done - o.sent; rtt > 50*time.Millisecond {
		t.Fatalf("request 5 round trip %v, want it fast", rtt)
	}
	if o.late != -1 {
		t.Fatalf("request 5 counted as generator lateness %v; the wait was the server's", o.late)
	}
}

func TestParsePromFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(string(data))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"ftspanner_oracle_batches_total":                          2,
		`ftspanner_http_request_ns_count{path="/query"}`:          3,
		`ftspanner_http_request_ns{path="/query",quantile="0.5"}`: 77823,
		`ftspanner_http_requests_total{path="/batch",code="200"}`: 2,
		`ftspanner_apply_stage_ns_sum{stage="csr"}`:               47597,
		"ftspanner_wal_syncs_total":                               4,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	mean, n := histMean(promSample{}, s, `ftspanner_apply_stage_ns{stage="csr"}`, 1e3)
	if n != 2 || math.Abs(mean-47.597/2) > 1e-9 {
		t.Errorf("csr stage mean %v us over %v, want %v over 2", mean, n, 47.597/2)
	}
	if mean, n := histMean(s, s, "ftspanner_apply_ns", 1e6); mean != 0 || n != 0 {
		t.Errorf("empty delta gave mean %v over %v", mean, n)
	}
	if _, err := parseProm("ftspanner_x notanumber\n"); err == nil {
		t.Error("bad value accepted")
	}
}

// grid3 is the 3x3 grid 0-1-2 / 3-4-5 / 6-7-8 with unit weights except
// the edge {1,2}, which weighs 5.
func grid3() *twin {
	g := newTwin(9, true)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			u := 3*r + c
			if c < 2 {
				g.add(u, u+1, 1)
			}
			if r < 2 {
				g.add(u, u+3, 1)
			}
		}
	}
	g.add(1, 2, 5)
	return g
}

func TestCheckerCatchesPlantedErrors(t *testing.T) {
	g := grid3()
	good := answer{U: 0, V: 8, Faults: []int{4}, Reachable: true, Dist: 4, Path: []int{0, 1, 2, 5, 8}}
	good.Dist = 1 + 5 + 1 + 1
	if err := checkAnswer(g, good, 3); err != nil {
		t.Fatalf("a valid stretched answer was rejected: %v", err)
	}
	for name, a := range map[string]answer{
		"wrong distance":           {U: 0, V: 8, Faults: []int{4}, Reachable: true, Dist: 4, Path: []int{0, 1, 2, 5, 8}},
		"through faulted vertex":   {U: 0, V: 8, Faults: []int{4}, Reachable: true, Dist: 4, Path: []int{0, 1, 4, 5, 8}},
		"edge not in G":            {U: 0, V: 8, Reachable: true, Dist: 1, Path: []int{0, 8}},
		"over the stretch":         {U: 0, V: 2, Reachable: true, Dist: 7, Path: []int{0, 1, 2, 1, 2}},
		"false unreachable":        {U: 0, V: 8, Faults: []int{4}, Reachable: false},
		"false capped unreachable": {U: 0, V: 8, Faults: []int{4}, Cap: 12, Reachable: false},
		"path off the pair":        {U: 0, V: 8, Reachable: true, Dist: 2, Path: []int{0, 1, 2}},
	} {
		if err := checkAnswer(g, a, 3); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	// Under a cap of 11 the true distance 4 exceeds cap/3, so a capped
	// "unreachable" is allowed.
	if err := checkAnswer(g, answer{U: 0, V: 8, Faults: []int{4}, Cap: 11, Reachable: false}, 3); err != nil {
		t.Errorf("legitimate capped unreachable rejected: %v", err)
	}
	apart := newTwin(9, true)
	apart.add(0, 1, 1)
	apart.add(7, 8, 1)
	if err := checkAnswer(apart, answer{U: 0, V: 8, Reachable: false}, 3); err != nil {
		t.Errorf("disconnected pair rejected: %v", err)
	}
}

func TestChurnGenEmitsOnlyValidBatches(t *testing.T) {
	lattice := func(weighted bool) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return gen.Lattice(rand.New(rand.NewSource(3)), 12, 12, 10, weighted) }
	}
	for name, c := range map[string]struct {
		make       func() (*graph.Graph, error)
		rows, cols int
	}{
		"weighted lattice":   {lattice(true), 12, 12},
		"unweighted lattice": {lattice(false), 12, 12},
		"power law": {func() (*graph.Graph, error) {
			return gen.PowerLaw(rand.New(rand.NewSource(3)), 60, 4, 2.5)
		}, 1, 60},
	} {
		g, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		m, err := dynamic.New(g, dynamic.Config{K: 2, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		cg := newChurnGen(rand.New(rand.NewSource(4)), g, c.rows, c.cols)
		for i := 0; i < 200; i++ {
			b := cg.next(4, 4)
			if len(b.Delete) != 4 || len(b.Insert) != 4 {
				t.Fatalf("%s: batch %d has %d deletes and %d inserts", name, i, len(b.Delete), len(b.Insert))
			}
			var db dynamic.Batch
			for _, d := range b.Delete {
				db.Delete = append(db.Delete, dynamic.Update{U: d.U, V: d.V})
			}
			for _, in := range b.Insert {
				db.Insert = append(db.Insert, dynamic.Update{U: in.U, V: in.V, W: in.W})
			}
			if err := m.Validate(db); err != nil {
				t.Fatalf("%s: batch %d invalid: %v", name, i, err)
			}
			if _, err := m.ApplyBatch(db); err != nil {
				t.Fatalf("%s: batch %d: %v", name, i, err)
			}
		}
		if got, want := m.Graph().M(), len(cg.edges); got != want {
			t.Fatalf("%s: generator tracks %d edges, graph has %d", name, want, got)
		}
	}
}

// A ladder rung stops sending once stopAfter of its requests were slow,
// and keeps the outcomes of exactly the requests it sent.
func TestStreamStopsAfterSlowRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	s := &stream{name: "query", sched: make([]time.Duration, 1000), conns: []*conn{c},
		request:   func(int) request { return request{path: "/"} },
		slow:      time.Millisecond,
		stopAfter: 12}
	runStream(s)
	if len(s.out) != 12 {
		t.Fatalf("sent %d requests, want to stop after 12 slow ones", len(s.out))
	}
	for i, o := range s.out {
		if !o.ok() || o.latency() <= time.Millisecond {
			t.Fatalf("request %d: ok=%v latency %v", i, o.ok(), o.latency())
		}
	}
}

// query_p99_us is the p99 of the whole window: a server stall that
// recurs every second and delays 2% of the requests must show in it.
func TestWindowP99ShowsRecurringStall(t *testing.T) {
	const rate = 6000.0
	var out []outcome
	for i := 0; i < 15*int(rate); i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		lat := 200 * time.Microsecond
		if due%time.Second < 20*time.Millisecond {
			lat = 20 * time.Millisecond // a 20 ms pause every second
		}
		out = append(out, outcome{due: due, sent: due, done: due + lat, status: 200})
	}
	if got := quantile(latencies(out, time.Millisecond), 0.99); got != 20 {
		t.Fatalf("window p99 %v ms, want the 20 ms stall", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", q)
	}
	c := compareMetric([]float64{10, 10.1, 9.9, 10, 10.05}, []float64{14, 14.1, 13.9, 14, 14}, false, 0.1)
	if c.verdict != "worse" {
		t.Fatalf("40%% slower judged %q", c.verdict)
	}
	c = compareMetric([]float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.1, 10, 9.95, 10.05, 10}, false, 0.1)
	if c.verdict != "same" {
		t.Fatalf("equal sets judged %q", c.verdict)
	}
}

// The warm-up reads ftserve's collections from the runtime's gctrace
// lines; any other line of its standard error is not one.
func TestParseGCTrace(t *testing.T) {
	at, ok := parseGCTrace("gc 14 @10.632s 1%: 0.041+117+0.007 ms clock, 0.082+0.21/58/115+0.014 ms cpu, 1268->1271->995 MB, 1489 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || at != 10632*time.Millisecond {
		t.Fatalf("parsed %v, %v; want 10.632s", at, ok)
	}
	for _, line := range []string{"", "ftserve: listening on 127.0.0.1:1", "gc 14 10.6s", "gc 1 @x s 0%:", "scvg: 1 MB released"} {
		if _, ok := parseGCTrace(line); ok {
			t.Fatalf("%q read as a collection", line)
		}
	}
}

func TestWithGCTraceKeepsGODEBUG(t *testing.T) {
	got := withGCTrace([]string{"PATH=/bin", "GODEBUG=madvdontneed=1"})
	want := []string{"PATH=/bin", "GODEBUG=madvdontneed=1,gctrace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if got := withGCTrace([]string{"PATH=/bin"}); !reflect.DeepEqual(got, []string{"PATH=/bin", "GODEBUG=gctrace=1"}) {
		t.Fatalf("got %q", got)
	}
}

// A stream with an until condition stops sending once it holds, and
// keeps the outcomes of exactly the requests it sent.
func TestStreamStopsWhenUntilHolds(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	var sent atomic.Int64
	s := &stream{name: "warm", sched: make([]time.Duration, 1000), conns: []*conn{c}, closed: true,
		request: func(int) request { sent.Add(1); return request{path: "/"} },
		until:   func() bool { return sent.Load() >= 30 }}
	runStream(s)
	if len(s.out) != 30 {
		t.Fatalf("sent %d requests, want 30", len(s.out))
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median %v", m)
	}
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// A window the host stole from is left out of the latency figures, unless
// no boot had a valid one; then every boot counts and the run is invalid.
func TestSummariseLeavesOutInvalidWindows(t *testing.T) {
	boot := func(p50 float64, invalid bool) bootResult {
		b := bootResult{setup: 1, rss: 1, reads: []float64{p50, p50}, batches: []float64{p50}}
		if invalid {
			b.readsInvalid = []string{"window: stolen"}
			b.probeInvalid = []string{"probe: stolen"}
		}
		return b
	}
	newRunner := func(boots ...bootResult) *runner {
		return &runner{boots: boots, res: &result{Metrics: map[string]metric{}, Samples: map[string]int{}}}
	}
	r := newRunner(boot(100, false), boot(300, true), boot(120, false))
	r.summarise()
	if got := r.res.Metrics["query_p50_us"].Value; got != 110 {
		t.Fatalf("p50 %v, want 110 from the two valid windows", got)
	}
	if got := r.res.Metrics["batch_p50_ms"].Value; got != 120 {
		t.Fatalf("batch p50 %v, want 120 from the two valid probes", got)
	}
	if !r.res.Valid {
		t.Fatalf("run marked invalid: %v", r.res.Invalid)
	}
	r = newRunner(boot(100, true), boot(300, true), boot(120, true))
	r.summarise()
	if got := r.res.Metrics["query_p50_us"].Value; got != 120 {
		t.Fatalf("p50 %v, want 120 from all three windows", got)
	}
	if r.res.Valid || len(r.res.Invalid) != 2 {
		t.Fatalf("valid=%v invalid=%v, want invalid for window and probe", r.res.Valid, r.res.Invalid)
	}
}

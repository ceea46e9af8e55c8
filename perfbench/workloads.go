package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

// workload is one traffic mix against one generated graph. The numbers
// here are the ones BENCHMARK.json documents; change them together.
type workload struct {
	name string
	// rows×cols lattice with shortcuts, or a power-law graph when rows = 0.
	rows, cols, shortcuts int
	weighted              bool
	plN                   int
	plDeg, plExp          float64
	k, f                  int
	wal                   bool
	// readRate is the open-loop Poisson read rate of the timed window, per
	// second.
	readRate float64
	// hotPool selects reads from a Zipf mix over a warmed pool of capped
	// near-pair queries; otherwise reads are uniform pairs with one uniform
	// fault and no cap.
	hotPool bool
	// warmup is the least time reads run at twice the nominal rate before
	// each timed window; they go on until ftserve's first collection after
	// ready has finished (see load).
	warmup time.Duration
	// p99Limit is the read p99 a goodput ladder rung must stay under.
	p99Limit time.Duration
	// The write probe's batch shape: deletes and inserts per batch.
	dels, ins int
	// probe is how many batches the write probe posts.
	probe int
}

var workloads = map[string]*workload{
	"query-hot": {
		name: "query-hot", rows: 1000, cols: 1000, shortcuts: 50000, weighted: true,
		k: 2, f: 1, readRate: 6000, hotPool: true, warmup: 2 * time.Second, p99Limit: 5 * time.Millisecond,
		dels: 4, ins: 4, probe: 15,
	},
	"query-cold": {
		name: "query-cold", plN: 10000, plDeg: 8, plExp: 2.5,
		k: 2, f: 1, wal: true, readRate: 2000, warmup: time.Second, p99Limit: 10 * time.Millisecond,
		// 66 batches: the checkpoint after the 64th lands in the probe.
		dels: 4, ins: 4, probe: checkpointEvery + 2,
	},
}

// makeGraph generates the workload's graph from the run's seed.
func (w *workload) makeGraph(seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	if w.rows > 0 {
		return gen.Lattice(rng, w.rows, w.cols, w.shortcuts, w.weighted)
	}
	return gen.PowerLaw(rng, w.plN, w.plDeg, w.plExp)
}

// gridShape returns the lattice geometry the churn generator and the pool
// use; a power-law graph is one row of n vertices.
func (w *workload) gridShape(n int) (rows, cols int) {
	if w.rows > 0 {
		return w.rows, w.cols
	}
	return 1, n
}

// serverArgs is ftserve's command line: its defaults except the graph file
// and the workload's k, f and write-ahead-log flags.
func (w *workload) serverArgs(graphPath, walDir string) []string {
	args := []string{"-graph", graphPath, "-k", strconv.Itoa(w.k), "-f", strconv.Itoa(w.f)}
	if w.wal {
		args = append(args, "-wal", walDir, "-fsync", "always", "-checkpoint-every", strconv.Itoa(checkpointEvery))
	}
	return args
}

// checkpointEvery is the -checkpoint-every of the WAL workloads.
const checkpointEvery = 64

// query is one read request.
type query struct {
	u, v  int
	fault int     // -1 = no fault
	cap   float64 // max_distance; 0 = none
}

func (q query) faults() []int {
	if q.fault < 0 {
		return nil
	}
	return []int{q.fault}
}

func (q query) path() string {
	vals := url.Values{}
	vals.Set("u", strconv.Itoa(q.u))
	vals.Set("v", strconv.Itoa(q.v))
	if q.fault >= 0 {
		vals.Set("faults", strconv.Itoa(q.fault))
	}
	if q.cap > 0 {
		vals.Set("max_distance", strconv.FormatFloat(q.cap, 'g', -1, 64))
	}
	return "/query?" + vals.Encode()
}

// hotPoolSize is the number of distinct queries in a hot pool: small
// enough to stay resident in ftserve's default result cache.
const hotPoolSize = 4096

// makePool returns the hot pool: near pairs on the lattice (v within 4 rows
// and columns of u), no fault or one fault near u, each capped at a radius
// that keeps the answer reachable in the spanner.
func makePool(rng *rand.Rand, rows, cols int) []query {
	near := func(u, r int) int {
		for {
			ru, cu := u/cols+rng.Intn(2*r+1)-r, u%cols+rng.Intn(2*r+1)-r
			if ru >= 0 && ru < rows && cu >= 0 && cu < cols {
				return ru*cols + cu
			}
		}
	}
	pool := make([]query, 0, hotPoolSize)
	seen := map[query]bool{}
	for len(pool) < hotPoolSize {
		u := rng.Intn(rows * cols)
		v := near(u, 4)
		if v == u {
			continue
		}
		q := query{u: u, v: v, fault: -1}
		if rng.Intn(2) == 0 {
			if q.fault = near(u, 2); q.fault == u || q.fault == v {
				continue
			}
		}
		manhattan := math.Abs(float64(u/cols-v/cols)) + math.Abs(float64(u%cols-v%cols))
		// Streets weigh under 2, a fault detours a few hops, and the
		// spanner stretches by at most 3.
		q.cap = 3 * (2*manhattan + 4)
		if seen[q] {
			continue
		}
		seen[q] = true
		pool = append(pool, q)
	}
	return pool
}

// coldQuery is a uniform pair with one uniform fault and no cap.
func coldQuery(rng *rand.Rand, n int) query {
	for {
		q := query{u: rng.Intn(n), v: rng.Intn(n), fault: rng.Intn(n)}
		if q.u != q.v && q.fault != q.u && q.fault != q.v {
			return q
		}
	}
}

// readMix draws the queries of one schedule: Zipf over the hot pool, or
// fresh cold queries.
func (w *workload) readMix(rng *rand.Rand, pool []query, n, count int) []query {
	qs := make([]query, count)
	if w.hotPool {
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
		for i := range qs {
			qs[i] = pool[z.Uint64()]
		}
		return qs
	}
	for i := range qs {
		qs[i] = coldQuery(rng, n)
	}
	return qs
}

func (w *workload) String() string {
	if w.rows > 0 {
		return fmt.Sprintf("%s: lattice %dx%d + %d shortcuts (weighted=%v), k=%d f=%d", w.name, w.rows, w.cols, w.shortcuts, w.weighted, w.k, w.f)
	}
	return fmt.Sprintf("%s: power-law n=%d avgdeg=%g exponent=%g, k=%d f=%d", w.name, w.plN, w.plDeg, w.plExp, w.k, w.f)
}

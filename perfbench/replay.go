package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ftspanner/internal/core"
	"ftspanner/internal/dynamic"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/oracle"
	"ftspanner/internal/sp"
	"ftspanner/internal/wal"
)

// perLayer lists the per-layer metrics of BENCHMARK.json, by module.
var perLayer = []string{
	"ftserve.query_handler_us_mean", "ftserve.batch_handler_ms_mean",
	"loadgen.send_late_p99_us",
	"oracle.query_hit_us_mean", "oracle.query_miss_us_mean", "oracle.query_capped_us_mean",
	"oracle.hit_ratio", "oracle.allocs_per_hit", "oracle.allocs_per_miss",
	"sp.search_us_mean", "sp.expanded_per_query",
	"core.build_s", "core.build_seq_s", "core.rounds", "core.redecided_ratio", "lbc.bfs_passes_per_edge",
	"graph.ingest_s", "graph.weight_sort_s", "graph.csr_build_ms", "graph.patch_csr_ms_mean",
	"dynamic.new_s", "dynamic.repair_ms_mean", "dynamic.redecided_per_batch",
	"dynamic.bfs_passes_per_batch", "dynamic.invalidated_per_batch", "dynamic.rebuild_batches",
	"wal.append_us_mean", "wal.fsync_us_mean", "wal.fsyncs_per_batch", "wal.bytes_per_batch",
	"wal.checkpoint_ms_mean", "wal.checkpoints",
	"oracle.apply_ms_mean", "oracle.publish_us_mean", "oracle.shards_invalidated_per_batch",
}

// setupTolerance is how far the sum of the set-up spans of the in-process
// replay may stray from the measured setup_s, as a share of setup_s. The
// spans leave out process start, the listener and the readiness poll, and
// run in a process whose heap differs from ftserve's.
const setupTolerance = 0.25

// queryMetrics reads the read-path layers from two /metrics scrapes that
// bracket the timed window.
func (r *runner) queryMetrics(before, after promSample) {
	mean := func(name, series string, unitNs float64) {
		m, _ := histMean(before, after, series, unitNs)
		r.set(name, unitName(unitNs), m)
	}
	mean("ftserve.query_handler_us_mean", `ftspanner_http_request_ns{path="/query"}`, 1e3)
	mean("oracle.query_hit_us_mean", `ftspanner_oracle_query_ns{result="hit"}`, 1e3)
	mean("oracle.query_miss_us_mean", `ftspanner_oracle_query_ns{result="miss"}`, 1e3)
	mean("oracle.query_capped_us_mean", `ftspanner_oracle_query_ns{result="capped"}`, 1e3)
	hits := delta(before, after, "ftspanner_oracle_cache_hits_total")
	misses := delta(before, after, "ftspanner_oracle_cache_misses_total")
	r.set("oracle.hit_ratio", "ratio", ratio(hits, hits+misses))
}

// applyMetrics reads the write-path layers from two /metrics scrapes that
// bracket the window in which churn batches were posted.
func (r *runner) applyMetrics(before, after promSample) {
	mean := func(name, series string, unitNs float64) {
		m, _ := histMean(before, after, series, unitNs)
		r.set(name, unitName(unitNs), m)
	}
	mean("ftserve.batch_handler_ms_mean", `ftspanner_http_request_ns{path="/batch"}`, 1e6)
	mean("oracle.apply_ms_mean", "ftspanner_apply_ns", 1e6)
	mean("oracle.publish_us_mean", `ftspanner_apply_stage_ns{stage="publish"}`, 1e3)
	mean("graph.patch_csr_ms_mean", `ftspanner_apply_stage_ns{stage="csr"}`, 1e6)
	mean("dynamic.repair_ms_mean", `ftspanner_apply_stage_ns{stage="repair"}`, 1e6)
	mean("wal.append_us_mean", "ftspanner_wal_append_ns", 1e3)
	mean("wal.fsync_us_mean", "ftspanner_wal_fsync_ns", 1e3)
	mean("wal.checkpoint_ms_mean", "ftspanner_wal_checkpoint_ns", 1e6)
	batches := delta(before, after, "ftspanner_oracle_batches_total")
	perBatch := func(name, unit, series string) {
		r.set(name, unit, ratio(delta(before, after, series), batches))
	}
	perBatch("dynamic.redecided_per_batch", "count", "ftspanner_maintainer_redecided_total")
	perBatch("dynamic.bfs_passes_per_batch", "count", "ftspanner_maintainer_bfs_passes_total")
	perBatch("dynamic.invalidated_per_batch", "count", "ftspanner_maintainer_invalidated_total")
	perBatch("oracle.shards_invalidated_per_batch", "count", "ftspanner_oracle_shards_invalidated_total")
	perBatch("wal.fsyncs_per_batch", "count", "ftspanner_wal_syncs_total")
	perBatch("wal.bytes_per_batch", "bytes", "ftspanner_wal_appended_bytes_total")
	r.set("dynamic.rebuild_batches", "count", delta(before, after, "ftspanner_maintainer_rebuild_batches_total"))
	r.set("wal.checkpoints", "count", delta(before, after, "ftspanner_checkpoints_total"))
}

func unitName(unitNs float64) string {
	switch unitNs {
	case 1e3:
		return "us"
	case 1e6:
		return "ms"
	}
	return "s"
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay re-runs each layer in-process on the same graph file and request
// stream, with a span around every call into a module's public API: the
// set-up ftserve performs (ingest, dynamic.New, CSR builds, the initial
// checkpoint), the two builders, the oracle's query path and the search
// kernel.
func (r *runner) replay() error {
	root := r.tr.begin("replay", 0)
	defer r.tr.end(root)
	var g *graph.Graph
	ingest, err := r.tr.timed("graph.Read", root, func() error {
		f, err := os.Open(r.graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.Read(f)
		return err
	})
	if err != nil {
		return err
	}
	setup := ingest
	if r.w.wal {
		d, _ := r.tr.timed("graph.Compact", root, func() error { g = graph.Compact(g); return nil })
		setup += d
	}
	var m *dynamic.Maintainer
	dNew, err := r.tr.timed("dynamic.New", root, func() error {
		var err error
		m, err = dynamic.New(g, dynamic.Config{K: r.w.k, F: r.w.f, Mode: lbc.Vertex})
		return err
	})
	if err != nil {
		return err
	}
	var h, gc *graph.CSR
	dCSR, _ := r.tr.timed("graph.BuildCSR", root, func() error {
		h, gc = graph.BuildCSR(m.Spanner()), graph.BuildCSR(m.Graph())
		return nil
	})
	setup += dNew + dCSR
	if r.w.wal {
		dir := filepath.Join(r.dir, "replay-ckpt")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		d, err := r.tr.timed("wal.WriteCheckpoint", root, func() error {
			_, err := wal.WriteCheckpoint(dir, 1, "perfbench", m.Graph(), m.Spanner())
			return err
		})
		if err != nil {
			return err
		}
		setup += d
	}
	sort, _ := r.tr.timed("graph.EdgeIDsByWeight", root, func() error { gc.EdgeIDsByWeight(); return nil })
	r.set("graph.ingest_s", "s", ingest.Seconds())
	r.set("dynamic.new_s", "s", dNew.Seconds())
	r.set("graph.csr_build_ms", "ms", float64(dCSR)/1e6)
	r.set("graph.weight_sort_s", "s", sort.Seconds())
	r.reconcile(setup)
	m, gc = nil, nil

	for _, b := range []struct {
		name    string
		workers int
	}{{"core.build_s", runtime.NumCPU()}, {"core.build_seq_s", 1}} {
		var st core.Stats
		d, err := r.tr.timed(fmt.Sprintf("core.ModifiedGreedyBatched(workers=%d)", b.workers), root, func() error {
			var err error
			_, st, err = core.ModifiedGreedyBatched(g, r.w.k, r.w.f, lbc.Vertex, b.workers)
			return err
		})
		if err != nil {
			return err
		}
		r.set(b.name, "s", d.Seconds())
		if b.workers > 1 {
			r.set("core.rounds", "count", float64(st.Rounds))
			r.set("core.redecided_ratio", "ratio", ratio(float64(st.Redecided), float64(st.EdgesConsidered)))
			r.set("lbc.bfs_passes_per_edge", "count", ratio(float64(st.BFSPasses), float64(st.EdgesConsidered)))
		}
	}

	qs := distinct(r.timedQueries, hotPoolSize)
	if err := r.replayOracle(root, g, qs); err != nil {
		return err
	}
	r.replaySearch(root, h, qs)
	return nil
}

// reconcile checks that the replayed set-up spans add up to setup_s. A
// mismatch is a timing finding, not a wrong answer: it marks the traced
// run invalid, as a noisy window does, and leaves correct alone.
func (r *runner) reconcile(spans time.Duration) {
	setup := r.res.Metrics["setup_s"].Value
	q := spans.Seconds() / setup
	r.set("setup.span_sum_ratio", "ratio", q)
	verdict := "holds"
	if math.Abs(q-1) > setupTolerance {
		verdict = "FAILS"
		r.res.Invalid = append(r.res.Invalid, fmt.Sprintf("set-up spans sum to %.3fs against setup_s %.3fs (ratio %.3f, tolerance ±%.0f%%)",
			spans.Seconds(), setup, q, 100*setupTolerance))
		r.res.Valid = false
	}
	fmt.Printf("perfbench: setup reconciliation %s: spans %.3fs vs setup_s %.3fs (ratio %.3f, tolerance ±%.0f%%)\n",
		verdict, spans.Seconds(), setup, q, 100*setupTolerance)
}

// distinct returns the first limit distinct queries of qs.
func distinct(qs []query, limit int) []query {
	seen := map[query]bool{}
	var out []query
	for _, q := range qs {
		if !seen[q] && len(out) < limit {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// replayOracle sends the distinct queries through oracle.Query twice, the
// first time missing the cache and the second time hitting it, and counts
// the heap allocations of each pass.
func (r *runner) replayOracle(parent int, g *graph.Graph, qs []query) error {
	var o *oracle.Oracle
	if _, err := r.tr.timed("oracle.New", parent, func() error {
		var err error
		o, err = oracle.New(g, oracle.Config{K: r.w.k, F: r.w.f, Mode: lbc.Vertex})
		return err
	}); err != nil {
		return err
	}
	defer o.Close()
	pass := func(name string, wantHit bool) (float64, error) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		id := r.tr.begin(name, parent)
		runtime.ReadMemStats(&before)
		for _, q := range qs {
			res, err := o.Query(q.u, q.v, oracle.QueryOptions{FaultVertices: q.faults(), MaxDistance: q.cap, CopyPath: true})
			if err != nil {
				return 0, err
			}
			if res.CacheHit != wantHit {
				return 0, fmt.Errorf("%s: query %+v: cache hit %v", name, q, res.CacheHit)
			}
		}
		runtime.ReadMemStats(&after)
		r.tr.end(id)
		return float64(after.Mallocs-before.Mallocs) / float64(len(qs)), nil
	}
	miss, err := pass("oracle.Query(miss)", false)
	if err != nil {
		return err
	}
	hit, err := pass("oracle.Query(hit)", true)
	if err != nil {
		return err
	}
	r.set("oracle.allocs_per_miss", "count", miss)
	r.set("oracle.allocs_per_hit", "count", hit)
	return nil
}

// replaySearch runs the search kernel alone on the spanner CSR with each
// query's fault mask, logging the vertices every search expands.
func (r *runner) replaySearch(parent int, h *graph.CSR, qs []query) {
	s := sp.NewSearcher(h.N(), h.EdgeIDLimit())
	expanded := 0
	d, _ := r.tr.timed("sp.Searcher", parent, func() error {
		for _, q := range qs {
			s.ResetBlocked()
			if q.fault >= 0 {
				s.BlockVertex(q.fault)
			}
			s.StartExpandedLog()
			if q.cap > 0 {
				s.DistPathWithin(h, q.u, q.v, q.cap)
			} else {
				s.DistPath(h, q.u, q.v)
			}
			expanded += len(s.StopExpandedLog())
		}
		return nil
	})
	r.set("sp.search_us_mean", "us", float64(d)/1e3/float64(len(qs)))
	r.set("sp.expanded_per_query", "count", float64(expanded)/float64(len(qs)))
}

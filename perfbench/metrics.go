package main

// metrics.go names every metric the benchmark prints, with its unit, and
// for each per-layer metric the end-to-end metric (and workload) it is
// predicted to move. BENCHMARK.json lists the same names, units and bounds
// (benchmark_json_test.go keeps the two in step).

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves is the end-to-end metric and workload a per-layer metric is
	// predicted to move.
	moves string
}

// endToEnd are the gated metrics. The p99 latencies are not among them:
// on a 2-vCPU VM their run-to-run spread (interquartile range over ten
// runs, 0.6 to 0.9 of the median) is wider than any usable bound, so each
// run prints them and the traced run reports them per layer instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ingest_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
	{name: "macro_f1", unit: "ratio", better: "higher", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1},
}

const (
	movesIngestSteady = "ingest_p50_ms on steady-http"
	movesQuerySteady  = "query_p50_ms on steady-http"
	movesFitSaturate  = "events_per_s and query_p50_ms on fit-saturate"
	movesDurable      = "ingest_p50_ms and recover_s on durable-cluster"
	movesRecover      = "recover_s on durable-cluster"
)

var perLayer = []metricDef{
	{name: "servehttp.ingest.p50_us", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "servehttp.ingest.p99_us", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "servehttp.ingest.self_us_p50", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "servehttp.query.p50_us", unit: "us", better: "lower", moves: movesQuerySteady},
	{name: "serve.ingest.calls", unit: "count", better: "lower", moves: movesIngestSteady},
	{name: "serve.ingest.busy_s", unit: "s", better: "lower", moves: movesIngestSteady},
	{name: "serve.ingest.p50_us", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "serve.ingest.p99_us", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "serve.ingest.self_us_p50", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "serve.query.p50_us", unit: "us", better: "lower", moves: "query_p50_ms on steady-http and fit-saturate"},
	{name: "serve.query.p99_us", unit: "us", better: "lower", moves: "query_p50_ms on fit-saturate"},
	{name: "serve.startjob.p50_us", unit: "us", better: "lower", moves: movesIngestSteady},
	{name: "serve.refit_queue_max", unit: "count", better: "lower", moves: movesFitSaturate},
	{name: "serve.refit_lag_max", unit: "count", better: "lower", moves: movesFitSaturate},
	{name: "serve.inline_refits", unit: "count", better: "lower", moves: movesFitSaturate},
	{name: "serve.shed", unit: "count", better: "lower", moves: movesFitSaturate},
	{name: "nurd.fit.calls", unit: "count", better: "lower", moves: movesFitSaturate},
	{name: "nurd.fit.busy_s", unit: "s", better: "lower", moves: movesFitSaturate},
	{name: "nurd.fit.p50_ms", unit: "ms", better: "lower", moves: movesFitSaturate},
	{name: "nurd.fit.p90_ms", unit: "ms", better: "lower", moves: movesFitSaturate},
	{name: "nurd.fit.rows_mean", unit: "rows", better: "lower", moves: movesFitSaturate},
	{name: "wal.write.calls", unit: "count", better: "lower", moves: movesDurable},
	{name: "wal.write.bytes", unit: "B", better: "lower", moves: movesDurable},
	{name: "wal.write.busy_s", unit: "s", better: "lower", moves: movesDurable},
	{name: "wal.sync.calls", unit: "count", better: "lower", moves: movesDurable},
	{name: "wal.sync.p50_us", unit: "us", better: "lower", moves: movesDurable},
	{name: "wal.sync.p99_us", unit: "us", better: "lower", moves: movesDurable},
	{name: "wal.sync.busy_s", unit: "s", better: "lower", moves: movesDurable},
	{name: "wal.syncs_per_event", unit: "ratio", better: "lower", moves: movesDurable},
	{name: "wal.bytes_per_event", unit: "B", better: "lower", moves: movesDurable},
	{name: "wal.read.bytes", unit: "B", better: "lower", moves: movesRecover},
	{name: "wal.read.busy_s", unit: "s", better: "lower", moves: movesRecover},
	{name: "cluster.node_events_max_over_mean", unit: "ratio", better: "lower", moves: movesRecover},
	{name: "cluster.recover.records", unit: "count", better: "lower", moves: movesRecover},
	{name: "loadgen.lateness_p99_ms", unit: "ms", better: "lower", moves: "the validity of every open-loop latency"},
	{name: "loadgen.ingest_p99_ms", unit: "ms", better: "lower", moves: "nothing: the untraced run's ingest tail, printed but not gated"},
	{name: "loadgen.query_p99_ms", unit: "ms", better: "lower", moves: "nothing: the untraced run's query tail, printed but not gated"},
}

// overheadName is the per-layer metric holding a metric's traced ÷
// untraced ratio.
func overheadName(e2e string) string { return "trace.overhead." + e2e }

// perLayerAll is perLayer plus the tracing overhead of every end-to-end
// metric.
func perLayerAll() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		out = append(out, metricDef{name: overheadName(m.name), unit: "ratio", better: "lower",
			moves: "nothing: the cost of tracing " + m.name})
	}
	return out
}

package main

// metricDef describes one printed metric.
type metricDef struct {
	name, unit, better string
	// moves and on name the end-to-end metric and the workload a change
	// in this per-layer metric should show up in.
	moves, on string
}

// endToEnd are the metrics of a run with tracing off. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "median_gm_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

const (
	cold     = "analyze-cold"
	large    = "analyze-large"
	optimize = "optimize-run"
	serveWL  = "serve-cache"
)

// perLayer are the metrics of a traced run, each with the end-to-end
// metric and workload it should move. A workload that does not exercise
// a layer reports it as 0.
var perLayer = func() []metricDef {
	ls := []metricDef{
		{"analyze_ms", "ms", "lower", "median_gm_ms", large},
		{"optimize_ms", "ms", "lower", "median_gm_ms", optimize},
		{"run_seq_ms", "ms", "lower", "median_gm_ms", optimize},
		{"run_chunked_ms", "ms", "lower", "median_gm_ms", optimize},
		{"parse.ms", "ms", "lower", "latency_p50_ms", cold},
		{"parse.allocs", "count", "lower", "latency_p50_ms", cold},
		{"cfgbuild.ms", "ms", "lower", "latency_p50_ms", cold},
		{"ssa.ms", "ms", "lower", "latency_p50_ms", cold},
		{"ssa.values", "count", "lower", "latency_p50_ms", cold},
		{"loops.ms", "ms", "lower", "latency_p50_ms", cold},
		{"sccp.ms", "ms", "lower", "latency_p50_ms", cold},
		{"iv.ms", "ms", "lower", "throughput_ops", cold},
		{"iv.allocs", "count", "lower", "throughput_ops", cold},
		{"iv.loops", "count", "higher", "latency_p50_ms", cold},
		{"depend.ms", "ms", "lower", "median_gm_ms", large},
		{"depend.allocs", "count", "lower", "latency_p99_ms", cold},
		{"depend.pairs", "count", "lower", "median_gm_ms", large},
		{"depend.independent_ratio", "ratio", "higher", "latency_p99_ms", cold},
		{"par.speedup", "x", "higher", "median_gm_ms", large},
		{"engine.overhead_ms", "ms", "lower", "latency_p50_ms", cold},
		{"engine.cache.hit_ratio", "ratio", "higher", "latency_p50_ms", serveWL},
		{"gc.cpu_ratio", "ratio", "lower", "throughput_ops", cold},
		{"alloc.bytes_per_op", "B", "lower", "throughput_ops", cold},
		{"alloc.objects_per_op", "count", "lower", "median_gm_ms", optimize},
	}
	for _, p := range []string{"normalize", "peel", "interchange", "distribute", "strength", "ivsub", "dce", "parmark"} {
		ls = append(ls,
			metricDef{"xform." + p + ".ms", "ms", "lower", "median_gm_ms", optimize},
			metricDef{"xform." + p + ".rewrites", "count", "higher", "median_gm_ms", optimize})
	}
	return append(ls, []metricDef{
		{"xform.rounds", "count", "lower", "median_gm_ms", optimize},
		{"optimize.analysis_ms", "ms", "lower", "median_gm_ms", optimize},
		{"validate.ms", "ms", "lower", "median_gm_ms", optimize},
		{"validate.share", "ratio", "lower", "median_gm_ms", optimize},
		{"interp.ssa_ms", "ms", "lower", "median_gm_ms", optimize},
		{"interp.ast_ms", "ms", "lower", "median_gm_ms", optimize},
		{"interp.chunked_ms", "ms", "lower", "median_gm_ms", optimize},
		{"interp.stores", "count", "lower", "median_gm_ms", optimize},
		{"interp.chunked_speedup", "x", "higher", "median_gm_ms", optimize},
		{"serve.handler_ms", "ms", "lower", "latency_p50_ms", serveWL},
		{"serve.http_ms", "ms", "lower", "throughput_ops", serveWL},
		{"serve.shed_ratio", "ratio", "lower", "throughput_ops", serveWL},
		{"codec.hash_ms", "ms", "lower", "throughput_ops", serveWL},
		{"store.persist_ms", "ms", "lower", "latency_p99_ms", serveWL},
		{"store.hit_alias_ratio", "ratio", "higher", "throughput_ops", serveWL},
		{"store.hit_struct_ratio", "ratio", "higher", "throughput_ops", serveWL},
		{"store.writes", "count", "lower", "latency_p99_ms", serveWL},
		{"trace.overhead_ratio", "ratio", "higher", "throughput_ops", "every workload"},
	}...)
}()

package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
}

// endToEnd are the metrics an untraced run reports, on every workload. Each
// workload maps them onto its own operation: latency_ms is SQL-to-plan on
// plan-mix, trigger-to-final on stream and admit/retire-to-serving on churn.
var endToEnd = []metricDef{
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p90", "ms", "lower"},
	{"throughput", "1/s", "higher"},
	{"work", "units", "lower"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// that does no work on a workload reports 0. Times are per operation
// (request or window), counts are totals over one pass.
var perLayer = []metricDef{
	{"plan.bind_ms", "ms", "lower"},
	{"mqo.build_ms", "ms", "lower"},
	{"mqo.subplans", "count", "lower"},
	{"mqo.shared_ops", "count", "higher"},
	{"cost.sims", "count", "lower"},
	{"cost.memo_hit_ratio", "ratio", "higher"},
	{"cost.sim_us", "us", "lower"},
	{"pace.search_ms", "ms", "lower"},
	{"pace.evals", "count", "lower"},
	{"decompose.ms", "ms", "lower"},
	{"decompose.rebuilds", "count", "lower"},
	{"decompose.accepted", "count", "higher"},
	{"opt.replan_ms", "ms", "lower"},
	{"opt.replan_sims", "count", "lower"},
	{"opt.memo_seeded", "count", "higher"},
	{"opt.matched_ratio", "ratio", "higher"},
	{"exec.busy_ms", "ms", "lower"},
	{"exec.firings", "count", "lower"},
	{"exec.batches", "count", "lower"},
	{"exec.work", "units", "lower"},
	{"exec.reuse_skip_ratio", "ratio", "higher"},
	{"exec.graft_ms", "ms", "lower"},
	{"exec.replayed", "count", "lower"},
	{"exec.arr_share_ratio", "ratio", "higher"},
	{"exec.arr_entries", "count", "lower"},
	{"sched.ticks", "count", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"bench.self_ms", "ms", "lower"},
	{"plan.self_ms", "ms", "lower"},
	{"mqo.self_ms", "ms", "lower"},
	{"pace.self_ms", "ms", "lower"},
	{"decompose.self_ms", "ms", "lower"},
	{"opt.self_ms", "ms", "lower"},
	{"exec.self_ms", "ms", "lower"},
	{"sched.self_ms", "ms", "lower"},
}

func knownLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

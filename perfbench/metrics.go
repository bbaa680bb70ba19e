package main

// endToEndMetrics are printed by every untraced run. BENCHMARK.json lists
// the same names, units and directions.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed by every traced run. A layer the workload
// does not enter reads 0 there; README.md names the workload each metric
// belongs to.
var perLayerMetrics = []metricDef{
	{"gateway.lookup_us", "us"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.coalesced_ratio", "ratio"},
	{"gateway.upstream_attempts_per_lookup", "count/op"},

	{"transport.frames_per_read", "count"},
	{"transport.frames_sent_per_lookup", "count/op"},
	{"transport.queue_drops", "count"},

	{"overlay.queue_wait_p50_us", "us"},
	{"overlay.queue_wait_p99_us", "us"},
	{"overlay.service_p50_us", "us"},
	{"overlay.hops_mean", "count"},
	{"overlay.fastpath_resolved_ratio", "ratio"},
	{"overlay.fastpath_fallbacks_per_lookup", "count/op"},
	{"overlay.batch_depth_mean", "count"},
	{"overlay.start_s", "s"},

	{"core.publish_us", "us"},
	{"core.hosted_entries", "count"},
	{"core.cache_entries", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.digest_shortcuts_per_lookup", "count/op"},

	{"persist.open_s", "s"},
	{"persist.install_s", "s"},
	{"persist.index_load_p50_us", "us"},
	{"persist.index_load_p99_us", "us"},
	{"persist.cold_miss_ratio", "ratio"},
	{"persist.evictions_per_lookup", "count/op"},
	{"persist.wal_appends_per_lookup", "count/op"},
	{"persist.wal_bytes_per_lookup", "B/op"},
	{"persist.resident_entries", "count"},

	{"sim.events_per_lookup", "count/op"},
	{"cluster.msgs_per_lookup", "count/op"},
	{"cluster.hops_mean", "count"},
	{"cluster.replica_creations", "count"},

	{"namespace.build_s", "s"},
	{"telemetry.trace_cpu_us_per_op", "us"},

	{"runtime.allocs_per_op", "count/op"},
	{"runtime.bytes_per_op", "B/op"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_inuse_mb", "MB"},

	{"cpu.gateway", "ratio"},
	{"cpu.overlay", "ratio"},
	{"cpu.wire", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.persist", "ratio"},
	{"cpu.namespace", "ratio"},
	{"cpu.bloom", "ratio"},
	{"cpu.sim", "ratio"},
	{"cpu.cluster", "ratio"},
	{"cpu.telemetry", "ratio"},
	{"cpu.runtime", "ratio"},
	{"cpu.syscall", "ratio"},
	{"cpu.other", "ratio"},
	{"cpu.core.publish", "ratio"},

	{"e2e.tail_us", "us"},
	{"loadgen.max_late_ms", "ms"},
	{"bench.trace_overhead", "us"},
}

// programDefaults records the program settings that shape the numbers. The
// benchmark passes zero values, so the program's shipped defaults apply;
// the workloads add the values they can observe (shards per server, the
// share of lookups that carried a trace).
func programDefaults() map[string]any {
	return map[string]any{
		"trace_sample": "program default (1)",
		"ingest_batch": "program default (64)",
		"shards":       "program default (1)",
		"membership":   "off",
	}
}

package main

// metricDef names one reported metric. The tables below are the source
// BENCHMARK.json is checked against (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the gated metrics every workload reports with tracing
// off. Each has one meaning per workload (see METRICS.md): work is
// payload megabits on vod and upload, permit decisions on permit, and
// simulated homes on fleet.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_work", "us", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
}

// named are the other end-to-end figures of the metric map: the
// workload-specific ones, and those that do not repeat within a tenth
// run to run (fail_ratio is 0 on a correct run; peak_rss_mb moves with
// where a GC cycle stood). They are printed on every run and reported
// as per-layer diagnostics from the untraced half of a traced run; a
// workload reports 0 for the ones that do not apply to it.
var named = []metricDef{
	{"fail_ratio", "ratio", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
	{"cpu_s_per_gb", "s/GB", "lower", 0},
	{"vod_startup_s", "s", "lower", 0},
	{"vod_download_s", "s", "lower", 0},
	{"vod_segment_p50_ms", "ms", "lower", 0},
	{"vod_segment_tail_ms", "ms", "lower", 0},
	{"upload_tx_s", "s", "lower", 0},
	{"permit_p50_ms", "ms", "lower", 0},
	{"permit_tail_ms", "ms", "lower", 0},
	{"permit_max_dps", "1/s", "higher", 0},
	{"fleet_homes_per_s", "1/s", "higher", 0},
	{"chaos_tx_per_s", "1/s", "higher", 0},
	{"loadgen.cpu_us_per_decision", "us", "lower", 0},
	{"host.ref_ms", "ms", "lower", 0},
}

// layers are the per-layer metrics of a traced run. A layer a workload
// bypasses reports 0.
var layers = []metricDef{
	{"hls.playlist_ms", "ms", "lower", 0},
	{"hls.origin_serve_ms", "ms", "lower", 0},
	{"core.segment_serve_ms", "ms", "lower", 0},
	{"transfer.ttfb_ms.adsl", "ms", "lower", 0},
	{"transfer.ttfb_ms.phone", "ms", "lower", 0},
	{"transfer.attempt_ms.adsl", "ms", "lower", 0},
	{"transfer.attempt_ms.phone", "ms", "lower", 0},
	{"scheduler.tx_s", "s", "lower", 0},
	{"scheduler.item_done_p50_ms", "ms", "lower", 0},
	{"scheduler.phone_byte_share", "ratio", "higher", 0},
	{"scheduler.waste_ratio", "ratio", "lower", 0},
	{"scheduler.duplicates_per_tx", "count", "lower", 0},
	{"scheduler.retries_per_tx", "count", "lower", 0},
	{"scheduler.requeues_per_tx", "count", "lower", 0},
	{"scheduler.stall_aborts_per_tx", "count", "lower", 0},
	{"scheduler.breaker_opens_per_tx", "count", "lower", 0},
	{"proxy.request_ms", "ms", "lower", 0},
	{"proxy.dial_ms", "ms", "lower", 0},
	{"proxy.self_ms", "ms", "lower", 0},
	{"permitplane.admit_us", "us", "lower", 0},
	{"permitplane.cache_hit_ratio", "ratio", "higher", 0},
	{"quota.admit_us", "us", "lower", 0},
	{"netem.read_ms", "ms", "lower", 0},
	{"netem.write_ms", "ms", "lower", 0},
	{"netem.link_busy_ratio", "ratio", "higher", 0},
	{"upload.serve_ms", "ms", "lower", 0},
	{"discovery.converge_ms", "ms", "lower", 0},
	{"runtime.alloc_bytes_per_mb", "B/MB", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	{"loadgen.late_ms", "ms", "lower", 0},
	{"permitplane.codec_us_per_decision", "us", "lower", 0},
	{"permitplane.serve_us_per_decision", "us", "lower", 0},
	{"http.overhead_us_per_decision", "us", "lower", 0},
	{"permitplane.decide_us", "us", "lower", 0},
	{"permit.decide_us", "us", "lower", 0},
	{"permitplane.record_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.records_per_decision", "count", "lower", 0},
	{"wal.snapshot_ms", "ms", "lower", 0},
	{"permitd.cpu_us_per_decision", "us", "lower", 0},
	{"permitplane.shard_skew", "ratio", "lower", 0},
	{"permitplane.wal_errors", "count", "lower", 0},
	{"fleet.run_s", "s", "lower", 0},
	{"fleet.allocs_per_home", "count", "lower", 0},
	{"chaos.run_s", "s", "lower", 0},
	{"chaos.allocs_per_tx", "count", "lower", 0},
	{"chaos.requeues_per_tx", "count", "lower", 0},
	{"chaos.duplicates_per_tx", "count", "lower", 0},
	{"chaos.waste_ratio", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// perLayer is everything a traced run reports: the layer metrics plus
// the named end-to-end diagnostics.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), layers...), named...)
}

// unitOf finds a metric's unit in the tables.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, named, layers} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

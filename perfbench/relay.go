package main

import (
	"runtime/metrics"

	"threegol/internal/obs"
)

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s) //3golvet:allow droppederr — runtime/metrics.Read returns nothing; the analyzer matches the name Read
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// counterTotal sums every child of a counter family in reg; byLabel,
// when non-nil, is asked whether to include a child by its first
// label value.
func counterTotal(reg *obs.Registry, name string, byLabel func(string) bool) float64 {
	var sum float64
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, v := range m.Values {
			if byLabel != nil && (len(v.LabelValues) == 0 || !byLabel(v.LabelValues[0])) {
				continue
			}
			sum += v.Value
		}
	}
	return sum
}

func isPhone(path string) bool { return routeClass(path) == "phone" }

// relayWindow is what the vod and upload workloads measured around the
// traced window, for the relay layers' figures.
type relayWindow struct {
	wall      float64 // seconds
	payloadMB float64
	tx        int // scheduler transactions
	homes     int
	upload    bool // direction: uplink when true
	converge  sample
	before    rtSnap
	after     rtSnap
	admits    float64
	fetches   float64
}

// relayLayers computes the per-layer figures shared by the vod and
// upload workloads from the traced run's spans, the benchmark's link
// counters and the scheduler's public metrics registry.
func relayLayers(tr *tracer, reg *obs.Registry, w relayWindow) map[string]float64 {
	st := analyze(tr.events())
	ms := func(name string) float64 { return st.dur[name].median() * 1e3 }
	us := func(name string) float64 { return st.dur[name].median() * 1e6 }
	l := map[string]float64{
		"hls.playlist_ms":             ms("hls.playlist"),
		"hls.origin_serve_ms":         ms("hls.origin_serve"),
		"core.segment_serve_ms":       ms("core.segment_serve"),
		"transfer.ttfb_ms.adsl":       tr.sample("ttfb.adsl").median() * 1e3,
		"transfer.ttfb_ms.phone":      tr.sample("ttfb.phone").median() * 1e3,
		"transfer.attempt_ms.adsl":    ms("transfer.attempt.adsl"),
		"transfer.attempt_ms.phone":   ms("transfer.attempt.phone"),
		"scheduler.tx_s":              st.dur["scheduler.transaction"].median(),
		"scheduler.item_done_p50_ms":  tr.sample("item_done").median() * 1e3,
		"proxy.request_ms":            ms("proxy.request"),
		"proxy.dial_ms":               ms("proxy.dial"),
		"permitplane.admit_us":        us("permitplane.admit"),
		"quota.admit_us":              us("quota.admit"),
		"upload.serve_ms":             ms("upload.serve"),
		"discovery.converge_ms":       w.converge.median() * 1e3,
		"permitplane.cache_hit_ratio": ratio(w.admits-w.fetches, w.admits),
	}

	bytes := counterTotal(reg, "scheduler_bytes_total", nil)
	tx := float64(w.tx)
	l["scheduler.phone_byte_share"] = ratio(counterTotal(reg, "scheduler_bytes_total", isPhone), bytes)
	l["scheduler.waste_ratio"] = ratio(counterTotal(reg, "scheduler_wasted_bytes_total", nil), bytes)
	l["scheduler.duplicates_per_tx"] = ratio(counterTotal(reg, "scheduler_duplicates_total", nil), tx)
	l["scheduler.retries_per_tx"] = ratio(counterTotal(reg, "scheduler_retries_total", nil), tx)
	l["scheduler.requeues_per_tx"] = ratio(counterTotal(reg, "scheduler_requeues_total", nil), tx)
	l["scheduler.stall_aborts_per_tx"] = ratio(counterTotal(reg, "scheduler_stall_aborts_total", nil), tx)
	l["scheduler.breaker_opens_per_tx"] = ratio(counterTotal(reg, "scheduler_breaker_opens_total", nil), tx)

	// proxy.self_ms: the part of each proxied request not covered by
	// the spans it caused upstream (admission, dial, the origin's or
	// sink's handler): the relay's own work plus the 3G hop's latency.
	l["proxy.self_ms"] = st.self["proxy.request"].median() * 1e3
	phone := tr.link("phone")

	var reads, readNs, writes, writeNs float64
	for _, class := range []string{"adsl", "phone", "wifi"} {
		s := tr.link(class)
		reads += float64(s.reads.Load())
		readNs += float64(s.readNs.Load())
		writes += float64(s.writes.Load())
		writeNs += float64(s.writeNs.Load())
	}
	l["netem.read_ms"] = ratio(readNs, reads) / 1e6
	l["netem.write_ms"] = ratio(writeNs, writes) / 1e6

	// Link busy: bits carried in the workload's direction over the
	// scaled capacity of every home's ADSL line and phones.
	down, up := phoneRates()
	adsl := tr.link("adsl")
	bits := float64(adsl.readBytes.Load()+phone.readBytes.Load()) * 8
	capacity := (dslDown + phonesPer*down) * timeScale
	if w.upload {
		bits = float64(adsl.writeBytes.Load()+phone.writeBytes.Load()) * 8
		capacity = (dslUp + phonesPer*up) * timeScale
	}
	l["netem.link_busy_ratio"] = ratio(bits, capacity*float64(w.homes)*w.wall)

	l["runtime.alloc_bytes_per_mb"] = ratio(w.after.allocBytes-w.before.allocBytes, w.payloadMB)
	l["runtime.gc_cpu_fraction"] = ratio(w.after.gcCPU-w.before.gcCPU, w.after.totalCPU-w.before.totalCPU)
	return l
}

// Benchmarks named after the paper's tables and figures: each runs the
// corresponding experiment and reports its headline quantity as a custom
// metric, so `go test -bench=. -benchmem` regenerates the evaluation in
// one sweep. Prototype-path experiments (Fig6–Fig9) drive real TCP over
// shaped loopback connections and take seconds per iteration; run them
// on an otherwise idle machine.
package threegol_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"threegol/internal/capacity"
	"threegol/internal/cellular"
	"threegol/internal/diurnal"
	"threegol/internal/evalwild"
	"threegol/internal/fleet"
	"threegol/internal/hls"
	"threegol/internal/measure"
	"threegol/internal/mptcp"
	"threegol/internal/quota"
	"threegol/internal/scheduler"
	"threegol/internal/traces"
	"threegol/internal/tracesim"
)

// ----- §2 context -----

func BenchmarkContextCapacity(b *testing.B) {
	var oom float64
	for i := 0; i < b.N; i++ {
		oom = capacity.PaperDefaults().Compute().OrdersOfMagnitude()
	}
	b.ReportMetric(oom, "orders-of-magnitude")
}

func BenchmarkFig1Diurnal(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		v += diurnal.Mobile.At(float64(i%24)) + diurnal.Wired.At(float64(i%24))
	}
	_ = v
	b.ReportMetric(float64(diurnal.Mobile.PeakHour()), "mobile-peak-hour")
	b.ReportMetric(float64(diurnal.Wired.PeakHour()), "wired-peak-hour")
}

// ----- §3 measurement study -----

func BenchmarkFig3Aggregate(b *testing.B) {
	loc, _ := cellular.FindLocation(cellular.MeasurementLocations, "loc1")
	var dl10, ul10 float64
	for i := 0; i < b.N; i++ {
		pts := measure.Fig3(loc, 10, 4, int64(42+i))
		dl10, ul10 = pts[9].DownMbps, pts[9].UpMbps
	}
	b.ReportMetric(dl10, "down-Mbps@10dev")
	b.ReportMetric(ul10, "up-Mbps@10dev(plateau)")
}

func BenchmarkFig4Diurnal(b *testing.B) {
	loc, _ := cellular.FindLocation(cellular.MeasurementLocations, "loc2")
	var n int
	for i := 0; i < b.N; i++ {
		samples := measure.Campaign(loc, 5, []int{5, 3, 1}, int64(7+i))
		n = len(measure.Fig4(samples))
	}
	b.ReportMetric(float64(n), "hourly-points")
}

func BenchmarkFig5PerBS(b *testing.B) {
	loc, _ := cellular.FindLocation(cellular.MeasurementLocations, "loc4")
	var n int
	for i := 0; i < b.N; i++ {
		samples := measure.Campaign(loc, 5, []int{1}, int64(13+i))
		n = len(measure.Fig5(samples, 12))
	}
	b.ReportMetric(float64(n), "violins")
}

func BenchmarkTable2Speedup(b *testing.B) {
	var up float64
	for i := 0; i < b.N; i++ {
		rows := measure.Table2(cellular.MeasurementLocations, 4, int64(42+i))
		up = rows[0].SpeedupUp // loc1's headline ×12.9-class uplink speedup
	}
	b.ReportMetric(up, "loc1-uplink-speedup")
}

func BenchmarkTable3Clusters(b *testing.B) {
	var singleDL float64
	for i := 0; i < b.N; i++ {
		var samples []measure.Sample
		for _, p := range cellular.MeasurementLocations[:3] {
			samples = append(samples, measure.Campaign(p, 2, []int{5, 3, 1}, int64(17+i))...)
		}
		rows := measure.Table3(samples)
		singleDL = rows[0].DownMean
	}
	b.ReportMetric(singleDL, "single-dev-down-Mbps")
}

// ----- §5 prototype path (real TCP over shaped loopback) -----

func benchSetup(i int) evalwild.Setup {
	return evalwild.Setup{TimeScale: 100, Seed: int64(42 + i), Reps: 1, Variability: 0.2}
}

func BenchmarkFig6Schedulers(b *testing.B) {
	var grdAdvantage float64
	for i := 0; i < b.N; i++ {
		rows, err := evalwild.Fig6(benchSetup(i))
		if err != nil {
			b.Fatal(err)
		}
		var grd, rr time.Duration
		for _, r := range rows {
			if r.Quality == "q4" && r.Phones == 2 {
				switch r.Scheme {
				case "3GOL_GRD":
					grd = r.Mean
				case "3GOL_RR":
					rr = r.Mean
				}
			}
		}
		grdAdvantage = rr.Seconds() / grd.Seconds()
	}
	b.ReportMetric(grdAdvantage, "RR/GRD-q4-2ph")
}

func BenchmarkFig7Prebuffer(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := evalwild.Fig7(benchSetup(i), []string{"loc4"}, []float64{0.2, 1.0}, []string{"q4"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Prebuffer == 1.0 && r.Phones == 2 && r.Warm {
				gain = r.GainSec
			}
		}
	}
	b.ReportMetric(gain, "gain-s-q4-100pc-2ph")
}

func BenchmarkFig8FullDownload(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := evalwild.Fig8(benchSetup(i), []string{"q3"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ReductionPct > best {
				best = r.ReductionPct
			}
		}
	}
	b.ReportMetric(best, "best-reduction-pct")
}

func BenchmarkFig9Upload(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := evalwild.Fig9(benchSetup(i), 6)
		if err != nil {
			b.Fatal(err)
		}
		var adsl, two time.Duration
		for _, r := range rows {
			if r.Location == "loc4" {
				switch r.Phones {
				case 0:
					adsl = r.Mean
				case 2:
					two = r.Mean
				}
			}
		}
		speedup = adsl.Seconds() / two.Seconds()
	}
	b.ReportMetric(speedup, "loc4-2ph-upload-speedup")
}

// ----- §6 trace-driven analyses -----

func BenchmarkFig10CapCDF(b *testing.B) {
	var at01 float64
	for i := 0; i < b.N; i++ {
		users := traces.GenerateMNO(traces.MNOConfig{Users: 20000}, int64(1+i))
		at01 = tracesim.Fig10(users).At(0.1)
	}
	b.ReportMetric(at01, "P(frac<=0.1)")
}

func BenchmarkEstimator(b *testing.B) {
	users := traces.GenerateMNO(traces.MNOConfig{Users: 20000}, 1)
	series := make([][]float64, len(users))
	for i, u := range users {
		series[i] = u.FreeSeries()
	}
	b.ResetTimer()
	var res quota.EvalResult
	for i := 0; i < b.N; i++ {
		res = quota.Estimator{}.Evaluate(series)
	}
	b.ReportMetric(100*res.UtilizedFraction, "utilised-pct")
	b.ReportMetric(res.OverrunDaysPerMonth, "overrun-days-per-month")
}

func BenchmarkFig11aSpeedupCDF(b *testing.B) {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: 18000}, 7)
	b.ResetTimer()
	var median float64
	for i := 0; i < b.N; i++ {
		outcomes := tracesim.Fig11a(tr, tracesim.Config{})
		median = tracesim.SpeedupCDF(outcomes).Quantile(0.5)
	}
	b.ReportMetric(median, "median-speedup")
}

func BenchmarkFig11bLoad(b *testing.B) {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: 18000}, 7)
	b.ResetTimer()
	var budgeted, unlimited float64
	for i := 0; i < b.N; i++ {
		ls := tracesim.Fig11b(tr, tracesim.Config{}, 300)
		budgeted = tracesim.PeakMbps(ls.BudgetedMbps)
		unlimited = tracesim.PeakMbps(ls.UnlimitedMbps)
	}
	b.ReportMetric(budgeted, "budgeted-peak-Mbps")
	b.ReportMetric(unlimited, "unlimited-peak-Mbps")
}

func BenchmarkFig11cAdoption(b *testing.B) {
	users := traces.GenerateMNO(traces.MNOConfig{Users: 20000}, 3)
	b.ResetTimer()
	var full float64
	for i := 0; i < b.N; i++ {
		pts := tracesim.Fig11c(users, []float64{1}, 20*traces.MB)
		full = pts[0].TotalIncrease
	}
	b.ReportMetric(100*full, "full-adoption-increase-pct")
}

// BenchmarkFleetThroughput measures the sharded fleet engine's
// simulation rate (homes/sec) as the worker pool grows: 1, 4 and
// NumCPU shards, each shard on its own worker. The merged report is
// identical at every scale for a fixed (homes, shards, seed) — this
// benchmark varies shards *with* workers because it measures
// throughput, not the determinism contract (internal/fleet's golden
// test pins that).
func BenchmarkFleetThroughput(b *testing.B) {
	const homes = 100_000
	widths := []int{1, 4}
	if n := runtime.NumCPU(); n >= 16 {
		widths = append(widths, 16)
	}
	if n := runtime.NumCPU(); n > 4 && n != 16 {
		widths = append(widths, n)
	}
	for _, n := range widths {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := fleet.Config{Homes: homes, Days: 1, Shards: n, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
		})
	}
}

func BenchmarkMPTCPBaseline(b *testing.B) {
	var coupled, uncoupled float64
	for i := 0; i < b.N; i++ {
		coupled = mptcp.Simulate(mptcp.Coupled, mptcp.ADSLPlus3G(), 20000, int64(1+i)).Aggregate
		uncoupled = mptcp.Simulate(mptcp.Uncoupled, mptcp.ADSLPlus3G(), 20000, int64(1+i)).Aggregate
	}
	b.ReportMetric(coupled, "coupled-pkts-per-rtt")
	b.ReportMetric(uncoupled, "uncoupled-pkts-per-rtt")
}

// ----- Ablations (DESIGN.md §5) -----

// sleepPath is a synthetic scheduler path with a fixed byte rate,
// suitable for isolating scheduler behaviour from HTTP mechanics.
type sleepPath struct {
	name string
	rate float64 // bytes/s
}

func (p *sleepPath) Name() string { return p.name }

func (p *sleepPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	d := time.Duration(float64(item.Size) / p.rate * float64(time.Second))
	select {
	case <-time.After(d):
		return item.Size, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func ablationItems(n int) []scheduler.Item {
	items := make([]scheduler.Item, n)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("i%d", i), Size: 200_000}
	}
	return items
}

func ablationPaths() []scheduler.Path {
	return []scheduler.Path{
		&sleepPath{name: "adsl", rate: 2e6},
		&sleepPath{name: "ph1", rate: 600e3},
	}
}

// BenchmarkAblationDuplication quantifies GRD's endgame duplication (the
// paper's design choice of re-assigning the oldest in-flight item). The
// workload is the canonical case where it matters: the slow path holds
// the final item while the fast path idles — without duplication the
// transaction waits for the slow replica (0.8 s here); with it the fast
// path re-fetches and wins (0.6 s).
func BenchmarkAblationDuplication(b *testing.B) {
	items := make([]scheduler.Item, 3)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("i%d", i), Size: 400_000}
	}
	paths := func() []scheduler.Path {
		return []scheduler.Path{
			&sleepPath{name: "fast", rate: 2e6},
			&sleepPath{name: "slow", rate: 500e3},
		}
	}
	for _, dup := range []bool{true, false} {
		name := "with-duplication"
		if !dup {
			name = "without-duplication"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := scheduler.Run(context.Background(), scheduler.Greedy,
					items, paths(), scheduler.Options{Resilience: scheduler.Resilience{DisableDuplication: !dup}})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = rep.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "transaction-s")
		})
	}
}

// BenchmarkAblationMinAlpha sweeps MIN's smoothing parameter around the
// paper's 0.75.
func BenchmarkAblationMinAlpha(b *testing.B) {
	for _, alpha := range []float64{0.25, 0.5, 0.75, 0.95} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := scheduler.Run(context.Background(), scheduler.MinTime,
					ablationItems(9), ablationPaths(), scheduler.Options{MinAlpha: alpha})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = rep.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "transaction-s")
		})
	}
}

// BenchmarkAblationPlayoutStalls compares GRD's oldest-item endgame with
// the Playout variant's head-of-line endgame on the metric that matters
// to a player: rebuffering time reconstructed from segment completion
// times (the paper's deferred §4.1.1 extension).
func BenchmarkAblationPlayoutStalls(b *testing.B) {
	mkPaths := func() []scheduler.Path {
		return []scheduler.Path{
			&sleepPath{name: "adsl", rate: 1e6},
			&sleepPath{name: "ph1", rate: 300e3},
			&sleepPath{name: "ph2", rate: 250e3},
		}
	}
	items := make([]scheduler.Item, 12)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("seg%d", i), Size: 120_000}
	}
	for _, algo := range []scheduler.Algo{scheduler.Greedy, scheduler.Playout} {
		b.Run(algo.String(), func(b *testing.B) {
			var stallSec, startupSec float64
			for i := 0; i < b.N; i++ {
				rep, err := scheduler.Run(context.Background(), algo, items, mkPaths(), scheduler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				// Each "segment" carries 1 s of media; player buffers 2.
				st := hls.SimulatePlayout(rep.ItemDone, 1.0, 2)
				stallSec = st.StallTime.Seconds()
				startupSec = st.Startup.Seconds()
			}
			b.ReportMetric(stallSec, "stall-s")
			b.ReportMetric(startupSec, "startup-s")
		})
	}
}

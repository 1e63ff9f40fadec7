// Command 3golbench regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the corresponding rows/series; the
// mapping to the paper is documented in DESIGN.md and EXPERIMENTS.md.
//
// Usage:
//
//	3golbench <experiment> [flags]
//
// Experiments:
//
//	context    §2.1 capacity back-of-the-envelope
//	fig1       diurnal wired/mobile traffic shapes
//	table1     synthetic data-source inventory
//	fig3       aggregate 3G throughput vs number of devices
//	fig4       per-device throughput by hour of day
//	fig5       per-base-station throughput distributions
//	table2     DSL vs 3-device 3G throughput per location
//	table3     per-device throughput stats by cluster size
//	table4     eval-location ADSL speeds and signal
//	fig6       scheduler comparison (prototype path)
//	fig7       pre-buffer gains (prototype path)
//	fig8       full-download reductions (prototype path)
//	fig9       upload times (prototype path)
//	fig10      cap-usage CDF
//	estimator  §6 allowance estimator back-test
//	fig11a     speedup CDF under budgets
//	fig11b     onloaded load vs backhaul
//	fig11c     traffic increase vs adoption
//	mptcp      coupled vs uncoupled congestion control baseline
//	lte        §2.3 outlook: the same boost with 4G/LTE devices
//	ablation   scheduler design-choice ablations (endgame duplication,
//	           MIN smoothing, playout endgame)
//	sim        every simulation-only experiment (excludes fig6–fig9, lte)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"threegol/internal/capacity"
	"threegol/internal/cellular"
	"threegol/internal/diurnal"
	"threegol/internal/dsl"
	"threegol/internal/evalwild"
	"threegol/internal/hls"
	"threegol/internal/linksim"
	"threegol/internal/measure"
	"threegol/internal/mptcp"
	"threegol/internal/quota"
	"threegol/internal/scheduler"
	"threegol/internal/traces"
	"threegol/internal/tracesim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 42, "random seed")
	reps := fs.Int("reps", 3, "repetitions per configuration (prototype-path experiments)")
	timeScale := fs.Float64("timescale", 60, "emulation acceleration factor (prototype-path experiments)")
	users := fs.Int("users", 18000, "DSLAM subscriber population")
	mnoUsers := fs.Int("mno-users", 20000, "MNO subscriber population")
	asJSON := fs.Bool("json", false, "emit a machine-readable result document instead of tables")
	fs.Parse(os.Args[2:])

	setup := evalwild.Setup{Seed: *seed, Reps: *reps, TimeScale: *timeScale}

	var run func(name string) error
	run = func(name string) error {
		switch name {
		case "context":
			return runContext()
		case "fig1":
			return runFig1()
		case "table1":
			return runTable1(*users, *mnoUsers, *seed)
		case "fig3":
			return runFig3(*seed)
		case "fig4":
			return runFig4(*seed)
		case "fig5":
			return runFig5(*seed)
		case "table2":
			return runTable2(*seed)
		case "table3":
			return runTable3(*seed)
		case "table4":
			return runTable4()
		case "fig6":
			return runFig6(setup)
		case "fig7":
			return runFig7(setup)
		case "fig8":
			return runFig8(setup)
		case "fig9":
			return runFig9(setup)
		case "fig10":
			return runFig10(*mnoUsers, *seed)
		case "estimator":
			return runEstimator(*mnoUsers, *seed)
		case "fig11a":
			return runFig11a(*users, *seed)
		case "fig11b":
			return runFig11b(*users, *seed)
		case "fig11c":
			return runFig11c(*mnoUsers, *seed)
		case "mptcp":
			return runMPTCP(*seed)
		case "lte":
			return runLTE(setup)
		case "ablation":
			return runAblation()
		case "sim":
			for _, n := range []string{
				"context", "fig1", "table1", "fig3", "fig4", "fig5",
				"table2", "table3", "table4", "fig10", "estimator",
				"fig11a", "fig11b", "fig11c", "mptcp",
			} {
				fmt.Printf("\n════════ %s ════════\n", n)
				if err := run(n); err != nil {
					return err
				}
			}
			return nil
		default:
			usage()
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	// Indirect recursion for "sim".
	var err error
	if *asJSON {
		err = runJSON(cmd, run)
	} else {
		err = run(cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "3golbench:", err)
		os.Exit(1)
	}
}

// jsonMetrics collects named scalar results while an experiment runs
// under -json; the run* functions report through metric(). nil outside
// -json runs, so reporting is free on the table path.
var jsonMetrics map[string]float64

// metric records one machine-readable result value.
func metric(name string, v float64) {
	if jsonMetrics != nil {
		jsonMetrics[name] = v
	}
}

// benchResult is the -json document.
type benchResult struct {
	Experiment  string             `json:"experiment"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
	Output      []string           `json:"output"`
}

// runJSON runs one experiment with its table output captured, then emits
// a benchResult on the real stdout: the experiment id, wall time, the
// metrics the experiment reported, and the human tables as lines.
func runJSON(name string, run func(string) error) error {
	jsonMetrics = map[string]float64{}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	lines := make(chan []string)
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		var out []string
		for sc.Scan() {
			out = append(out, sc.Text())
		}
		lines <- out
	}()

	real := os.Stdout
	os.Stdout = w
	start := time.Now() //3golvet:allow wallclock — reporting real experiment wall time
	runErr := run(name)
	wall := time.Since(start) //3golvet:allow wallclock — reporting real experiment wall time
	w.Close()
	os.Stdout = real
	captured := <-lines
	if runErr != nil {
		return runErr
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(benchResult{
		Experiment:  name,
		WallSeconds: wall.Seconds(),
		Metrics:     jsonMetrics,
		Output:      captured,
	})
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: 3golbench <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "experiments: context fig1 table1 fig3 fig4 fig5 table2 table3 table4")
	fmt.Fprintln(os.Stderr, "             fig6 fig7 fig8 fig9 fig10 estimator fig11a fig11b fig11c mptcp lte ablation sim")
}

func runContext() error {
	r := capacity.PaperDefaults().Compute()
	fmt.Println("§2.1 capacity comparison (paper assumptions)")
	fmt.Printf("  cell coverage area          %8.4f km²\n", r.AreaKm2)
	fmt.Printf("  subscribers per cell        %8.0f   (paper: 4375)\n", r.Subscribers)
	fmt.Printf("  ADSL lines per cell         %8.0f   (paper: 875)\n", r.ADSLLines)
	fmt.Printf("  aggregate wired downlink    %8.3f Gbps (paper: 5.863)\n", r.WiredDownGbps)
	fmt.Printf("  aggregate wired uplink      %8.3f Gbps\n", r.WiredUpGbps)
	fmt.Printf("  cell backhaul               %8.3f Gbps\n", r.CellGbps)
	fmt.Printf("  wired/cell downlink ratio   %8.1f× (%.2f orders of magnitude)\n",
		r.DownRatio, r.OrdersOfMagnitude())
	fmt.Printf("  wired/cell uplink ratio     %8.1f×\n", r.UpRatio)
	metric("wired_down_gbps", r.WiredDownGbps)
	metric("down_ratio", r.DownRatio)
	metric("up_ratio", r.UpRatio)
	return nil
}

func runFig1() error {
	fmt.Println("Fig 1: normalised diurnal traffic (hour, mobile, wired)")
	for h := 0; h < 24; h++ {
		fmt.Printf("  %02d:00  mobile %.3f  wired %.3f\n",
			h, diurnal.Mobile.At(float64(h)), diurnal.Wired.At(float64(h)))
	}
	fmt.Printf("  peaks: mobile %02d:00, wired %02d:00 (misaligned, as in the paper)\n",
		diurnal.Mobile.PeakHour(), diurnal.Wired.PeakHour())
	return nil
}

func runTable1(users, mnoUsers int, seed int64) error {
	fmt.Println("Table 1: synthetic data sources standing in for the paper's datasets")
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: users}, seed)
	mno := traces.GenerateMNO(traces.MNOConfig{Users: mnoUsers}, seed)
	fmt.Printf("  DSLAM   %d DSL lines, %d video sessions, %d viewers (%.0f%%)\n",
		tr.NumUsers, len(tr.Sessions), tr.Viewers(), 100*float64(tr.Viewers())/float64(tr.NumUsers))
	fmt.Printf("  MNO     %d subscribers, mean daily leftover %.1f MB\n",
		len(mno), traces.MeanDailyLeftoverBytes(mno)/traces.MB)
	fmt.Printf("  Handset experiments: cellular model presets (%d measurement + %d eval locations)\n",
		len(cellular.MeasurementLocations), len(cellular.EvalLocations))
	return nil
}

func runFig3(seed int64) error {
	fmt.Println("Fig 3: aggregate throughput vs number of devices (Mbps)")
	for _, name := range []string{"loc1", "loc2", "loc3", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		pts := measure.Fig3(p, 10, 4, seed)
		fmt.Printf("  %s (%s, hour %.0f)\n", p.Name, p.Description, p.Hour)
		for _, pt := range pts {
			fmt.Printf("    n=%2d  down %6.2f  up %6.2f\n", pt.Devices, pt.DownMbps, pt.UpMbps)
		}
	}
	return nil
}

func runFig4(seed int64) error {
	fmt.Println("Fig 4: per-device throughput by hour (Mbps, 5-day campaign)")
	for _, name := range []string{"loc1", "loc2", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		samples := measure.Campaign(p, 5, []int{5, 3, 1}, seed)
		pts := measure.Fig4(samples)
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].Group != pts[j].Group {
				return pts[i].Group < pts[j].Group
			}
			if pts[i].Dir != pts[j].Dir {
				return pts[i].Dir < pts[j].Dir
			}
			return pts[i].Hour < pts[j].Hour
		})
		fmt.Printf("  %s:\n", p.Name)
		for _, g := range []int{1, 5} {
			for _, dir := range []cellular.Direction{cellular.Downlink, cellular.Uplink} {
				fmt.Printf("    group=%d %s:", g, dir)
				for _, pt := range pts {
					if pt.Group == g && pt.Dir == dir && pt.Hour%4 == 2 {
						fmt.Printf("  %02dh %.2f", pt.Hour, pt.MeanMbps)
					}
				}
				fmt.Println()
			}
		}
	}
	return nil
}

func runFig5(seed int64) error {
	fmt.Println("Fig 5: single-device throughput per base station (Mbps)")
	for _, name := range []string{"loc1", "loc3", "loc4"} {
		p, _ := cellular.FindLocation(cellular.MeasurementLocations, name)
		samples := measure.Campaign(p, 5, []int{1}, seed)
		violins := measure.Fig5(samples, 12)
		sort.Slice(violins, func(i, j int) bool {
			if violins[i].BS != violins[j].BS {
				return violins[i].BS < violins[j].BS
			}
			return violins[i].Dir < violins[j].Dir
		})
		for _, v := range violins {
			s := v.Violin.Summary
			fmt.Printf("  %-14s %-8s n=%3d  q1=%.2f med=%.2f q3=%.2f  range [%.2f, %.2f]\n",
				v.BS, v.Dir, s.N, v.Violin.Q1, v.Violin.Q2, v.Violin.Q3, s.Min, s.Max)
		}
	}
	fmt.Println("  reference: dedicated-channel floors 0.36 (down) / 0.064 (up) Mbps")
	return nil
}

func runTable2(seed int64) error {
	rows := measure.Table2(cellular.MeasurementLocations, 4, seed)
	fmt.Println("Table 2: DSL vs 3-device 3G throughput (Mbps) and 3GOL speedup")
	fmt.Println("  loc   hour  DSL d/u        3G d/u (paper d/u)      3GOL/DSL d/u")
	for _, r := range rows {
		fmt.Printf("  %-5s %4.0f  %5.2f/%5.2f  %5.2f/%5.2f (%4.2f/%4.2f)  %5.2f/%6.2f\n",
			r.Location, r.Hour, r.DSLDown, r.DSLUp,
			r.ThreeGDown, r.ThreeGUp, r.PaperDown, r.PaperUp,
			r.SpeedupDown, r.SpeedupUp)
	}
	return nil
}

func runTable3(seed int64) error {
	var samples []measure.Sample
	for _, p := range cellular.MeasurementLocations {
		samples = append(samples, measure.Campaign(p, 5, []int{5, 3, 1}, seed)...)
	}
	rows := measure.Table3(samples)
	fmt.Println("Table 3: per-device throughput by cluster size (Mbps)")
	fmt.Println("  cluster  uplink mean/max/sd     downlink mean/max/sd    (paper up | down)")
	paper := map[int]string{
		1: "1.09/2.32/0.72 | 1.61/2.65/0.57",
		3: "0.90/2.47/0.60 | 1.33/2.32/0.51",
		5: "0.65/2.44/0.50 | 1.16/3.44/0.56",
	}
	for _, r := range rows {
		fmt.Printf("  %7d  %4.2f/%4.2f/%4.2f        %4.2f/%4.2f/%4.2f        (%s)\n",
			r.Cluster, r.UpMean, r.UpMax, r.UpSd, r.DownMean, r.DownMax, r.DownSd, paper[r.Cluster])
	}
	return nil
}

func runTable4() error {
	fmt.Println("Table 4: evaluation locations")
	fmt.Println("  loc   DSL down/up (Mbps)   3G signal (dBm)")
	for _, p := range cellular.EvalLocations {
		fmt.Printf("  %-5s %6.2f/%5.2f         %5.0f\n",
			p.Name, p.DSLDown/linksim.Mbps, p.DSLUp/linksim.Mbps, p.SignalDBm)
	}
	return nil
}

func runFig6(s evalwild.Setup) error {
	fmt.Printf("Fig 6: scheduler comparison (200 s HLS video, 2 Mbps ADSL; %d reps, emulated seconds)\n", s.Reps)
	rows, err := evalwild.Fig6(s)
	if err != nil {
		return err
	}
	for _, phones := range []int{1, 2} {
		fmt.Printf("  %d phone(s):\n", phones)
		fmt.Printf("    %-8s", "quality")
		for _, scheme := range []string{"ADSL", "3GOL_MIN", "3GOL_RR", "3GOL_GRD"} {
			fmt.Printf("  %-14s", scheme)
		}
		fmt.Println()
		for _, q := range []string{"q1", "q2", "q3", "q4"} {
			fmt.Printf("    %-8s", q)
			for _, scheme := range []string{"ADSL", "3GOL_MIN", "3GOL_RR", "3GOL_GRD"} {
				for _, r := range rows {
					if r.Quality == q && r.Scheme == scheme && r.Phones == phones {
						fmt.Printf("  %5.1fs ±%4.1fs ", r.Mean.Seconds(), r.Std.Seconds())
					}
				}
			}
			fmt.Println()
		}
	}
	return nil
}

func runFig7(s evalwild.Setup) error {
	fmt.Println("Fig 7: pre-buffer gain in emulated seconds (GRD scheduler)")
	rows, err := evalwild.Fig7(s, nil, nil, nil)
	if err != nil {
		return err
	}
	for _, loc := range []string{"loc2", "loc4"} {
		for _, phones := range []int{1, 2} {
			for _, warm := range []bool{false, true} {
				mode := "3G"
				if warm {
					mode = "H"
				}
				fmt.Printf("  %s %dPH %s:\n", loc, phones, mode)
				for _, q := range []string{"q1", "q2", "q3", "q4"} {
					fmt.Printf("    %s:", q)
					for _, r := range rows {
						if r.Location == loc && r.Phones == phones && r.Warm == warm && r.Quality == q {
							fmt.Printf("  %3.0f%%→%5.1fs", r.Prebuffer*100, r.GainSec)
						}
					}
					fmt.Println()
				}
			}
		}
	}
	return nil
}

func runFig8(s evalwild.Setup) error {
	fmt.Println("Fig 8: full-video download time reduction (%)")
	rows, err := evalwild.Fig8(s, nil)
	if err != nil {
		return err
	}
	fmt.Println("  loc    3G_1PH  H_1PH  3G_2PH  H_2PH")
	for _, loc := range []string{"loc1", "loc2", "loc3", "loc4", "loc5"} {
		fmt.Printf("  %-5s", loc)
		for _, cfg := range []struct {
			phones int
			warm   bool
		}{{1, false}, {1, true}, {2, false}, {2, true}} {
			for _, r := range rows {
				if r.Location == loc && r.Phones == cfg.phones && r.Warm == cfg.warm {
					fmt.Printf("  %5.1f%%", r.ReductionPct)
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func runFig9(s evalwild.Setup) error {
	fmt.Println("Fig 9: 30-photo upload time (emulated seconds)")
	rows, err := evalwild.Fig9(s, 30)
	if err != nil {
		return err
	}
	fmt.Println("  loc    ADSL      1PH       2PH")
	for _, loc := range []string{"loc1", "loc2", "loc3", "loc4", "loc5"} {
		fmt.Printf("  %-5s", loc)
		for _, phones := range []int{0, 1, 2} {
			for _, r := range rows {
				if r.Location == loc && r.Phones == phones {
					fmt.Printf("  %7.1fs", r.Mean.Seconds())
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func runFig10(mnoUsers int, seed int64) error {
	users := traces.GenerateMNO(traces.MNOConfig{Users: mnoUsers}, seed)
	cdf := tracesim.Fig10(users)
	fmt.Println("Fig 10: CDF of fraction of cap used")
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		fmt.Printf("  P(frac ≤ %.2f) = %.3f\n", x, cdf.At(x))
	}
	fmt.Printf("  anchors: paper has P(≤0.1)=0.40, P(≤0.5)=0.75\n")
	fmt.Printf("  mean daily leftover: %.1f MB/device (paper: ≈20 MB)\n",
		traces.MeanDailyLeftoverBytes(users)/traces.MB)
	metric("p_frac_le_0.1", cdf.At(0.1))
	metric("p_frac_le_0.5", cdf.At(0.5))
	metric("mean_daily_leftover_mb", traces.MeanDailyLeftoverBytes(users)/traces.MB)
	return nil
}

func runEstimator(mnoUsers int, seed int64) error {
	users := traces.GenerateMNO(traces.MNOConfig{Users: mnoUsers}, seed)
	series := make([][]float64, len(users))
	for i, u := range users {
		series[i] = u.FreeSeries()
	}
	fmt.Println("§6 estimator back-test: 3GOLa(t) = F̄u(t) − α·σ̄u(t)")
	fmt.Println("  τ    α     utilised%   overrun days/month")
	for _, cfg := range []quota.Estimator{
		{Tau: 5, Alpha: 4}, // the paper's operating point
		{Tau: 5, Alpha: 2},
		{Tau: 5, Alpha: 1},
		{Tau: 3, Alpha: 4},
		{Tau: 8, Alpha: 4},
	} {
		res := cfg.Evaluate(series)
		marker := ""
		if cfg.Tau == 5 && cfg.Alpha == 4 {
			marker = "   ← paper (≈65%, <1 day)"
			metric("utilised_frac", res.UtilizedFraction)
			metric("overrun_days_per_month", res.OverrunDaysPerMonth)
		}
		fmt.Printf("  %-4d %-4.0f  %6.1f%%     %.2f%s\n",
			cfg.Tau, cfg.Alpha, 100*res.UtilizedFraction, res.OverrunDaysPerMonth, marker)
	}
	return nil
}

func runFig11a(users int, seed int64) error {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: users}, seed)
	outcomes := tracesim.Fig11a(tr, tracesim.Config{})
	cdf := tracesim.SpeedupCDF(outcomes)
	fmt.Println("Fig 11(a): per-user DSL/3GOL latency ratio under 40 MB/day budget")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Printf("  p%-3.0f speedup ×%.2f\n", q*100, cdf.Quantile(q))
	}
	fmt.Printf("  fraction with ≥1.2× speedup: %.2f (paper: ≥0.50)\n", 1-cdf.At(1.2))
	fmt.Printf("  mean onloaded: %.1f MB/user/day (paper: 29.78)\n",
		tracesim.MeanOnloadedBytesPerUser(outcomes)/traces.MB)
	metric("speedup_p50", cdf.Quantile(0.5))
	metric("speedup_p90", cdf.Quantile(0.9))
	metric("frac_speedup_ge_1.2", 1-cdf.At(1.2))
	metric("mean_onloaded_mb", tracesim.MeanOnloadedBytesPerUser(outcomes)/traces.MB)

	// Extension: the same analysis over a heterogeneous loop plant (the
	// paper's uniform 3 Mbps population replaced by dsl rate-reach
	// populations) — rural lines see the larger tail speedups.
	fmt.Println("  heterogeneous-plant extension (p50 / p90 speedups):")
	for _, pop := range []struct {
		name string
		p    dsl.Population
	}{
		{"urban ADSL2+ (0.6 km loops)", dsl.Population{Technology: dsl.ADSL2Plus, MeanLoopMetres: 600}},
		{"rural ADSL (3 km loops)", dsl.Population{Technology: dsl.ADSL1, MeanLoopMetres: 3000}},
	} {
		rates := tracesim.AssignLineRates(tr, pop.p, seed)
		het := tracesim.SpeedupCDF(tracesim.Fig11aHeterogeneous(tr, rates, tracesim.Config{}))
		fmt.Printf("    %-28s ×%.2f / ×%.2f\n", pop.name, het.Quantile(0.5), het.Quantile(0.9))
	}
	return nil
}

func runFig11b(users int, seed int64) error {
	tr := traces.GenerateDSLAM(traces.DSLAMConfig{Users: users}, seed)
	ls := tracesim.Fig11b(tr, tracesim.Config{}, 300)
	fmt.Println("Fig 11(b): onloaded cellular load, 5-min bins (Mbps)")
	fmt.Printf("  backhaul capacity: %.0f Mbps (2 towers × 40)\n", ls.BackhaulMbps)
	fmt.Printf("  budgeted  peak %8.1f Mbps\n", tracesim.PeakMbps(ls.BudgetedMbps))
	fmt.Printf("  unlimited peak %8.1f Mbps\n", tracesim.PeakMbps(ls.UnlimitedMbps))
	metric("backhaul_mbps", ls.BackhaulMbps)
	metric("budgeted_peak_mbps", tracesim.PeakMbps(ls.BudgetedMbps))
	metric("unlimited_peak_mbps", tracesim.PeakMbps(ls.UnlimitedMbps))
	fmt.Printf("  mean onloaded under the first-video rule: %.1f MB/user/day (paper: 29.78)\n",
		tracesim.MeanOnloadedFirstVideoBytes(tr, tracesim.Config{})/traces.MB)
	fmt.Println("  hour  budgeted  unlimited")
	for h := 0; h < 24; h += 2 {
		bin := h * 12
		fmt.Printf("  %02d:00 %8.1f  %9.1f\n", h, ls.BudgetedMbps[bin], ls.UnlimitedMbps[bin])
	}
	return nil
}

func runFig11c(mnoUsers int, seed int64) error {
	users := traces.GenerateMNO(traces.MNOConfig{Users: mnoUsers}, seed)
	fracs := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	pts := tracesim.Fig11c(users, fracs, 20*traces.MB)
	fmt.Println("Fig 11(c): relative 3G traffic increase vs 3GOL adoption")
	fmt.Println("  adoption  total increase  peak-hour increase")
	for _, p := range pts {
		fmt.Printf("  %7.0f%%  %13.1f%%  %17.1f%%\n",
			p.Fraction*100, p.TotalIncrease*100, p.PeakIncrease*100)
		if p.Fraction == 1.0 {
			metric("total_increase_full_adoption", p.TotalIncrease)
			metric("peak_increase_full_adoption", p.PeakIncrease)
		}
	}
	return nil
}

// ratePath is a synthetic fixed-rate scheduler path used by the
// ablation experiments (isolating scheduler behaviour from HTTP).
type ratePath struct {
	name string
	rate float64 // bytes per second
}

func (p *ratePath) Name() string { return p.name }

func (p *ratePath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	select {
	case <-time.After(time.Duration(float64(item.Size) / p.rate * float64(time.Second))):
		return item.Size, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func runAblation() error {
	mkItems := func(n int, size int64) []scheduler.Item {
		items := make([]scheduler.Item, n)
		for i := range items {
			items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("i%d", i), Size: size}
		}
		return items
	}
	twoPaths := func() []scheduler.Path {
		return []scheduler.Path{
			&ratePath{name: "fast", rate: 2e6},
			&ratePath{name: "slow", rate: 500e3},
		}
	}

	fmt.Println("Ablation 1: GRD endgame duplication (3 items, 4:1 path asymmetry)")
	for _, dup := range []bool{true, false} {
		rep, err := scheduler.Run(context.Background(), scheduler.Greedy,
			mkItems(3, 400_000), twoPaths(), scheduler.Options{Resilience: scheduler.Resilience{DisableDuplication: !dup}})
		if err != nil {
			return err
		}
		fmt.Printf("  duplication=%-5v  transaction %6.2fs  wasted %d bytes\n",
			dup, rep.Elapsed.Seconds(), rep.WastedBytes)
	}

	fmt.Println("Ablation 2: MIN smoothing parameter α (paper: 0.75)")
	for _, alpha := range []float64{0.25, 0.5, 0.75, 0.95} {
		rep, err := scheduler.Run(context.Background(), scheduler.MinTime,
			mkItems(9, 200_000), twoPaths(), scheduler.Options{MinAlpha: alpha})
		if err != nil {
			return err
		}
		fmt.Printf("  α=%.2f  transaction %6.2fs\n", alpha, rep.Elapsed.Seconds())
	}

	fmt.Println("Ablation 3: playout-aware endgame (12 one-second segments, prebuffer 2)")
	for _, algo := range []scheduler.Algo{scheduler.Greedy, scheduler.Playout} {
		paths := []scheduler.Path{
			&ratePath{name: "adsl", rate: 1e6},
			&ratePath{name: "ph1", rate: 300e3},
			&ratePath{name: "ph2", rate: 250e3},
		}
		rep, err := scheduler.Run(context.Background(), algo, mkItems(12, 120_000), paths, scheduler.Options{})
		if err != nil {
			return err
		}
		st := hls.SimulatePlayout(rep.ItemDone, 1.0, 2)
		fmt.Printf("  %-8s startup %5.2fs  stalls %d (%.2fs)  total %5.2fs\n",
			algo, st.Startup.Seconds(), st.Stalls, st.StallTime.Seconds(), st.Finished.Seconds())
	}
	return nil
}

func runLTE(s evalwild.Setup) error {
	fmt.Println("§2.3 outlook: powerboost with 3G vs 4G devices (loc4, q4, 20% pre-buffer)")
	rows, err := evalwild.LTEComparison(s, "loc4")
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-10s per-device %4.1f Mbps, RRC %5v:  startup %5.1fs → %5.1fs, full download %5.1fs\n",
			r.Tech, r.PhoneDown/1e6, r.RRCPromotion,
			r.BaselineStartup.Seconds(), r.BoostedStartup.Seconds(), r.BoostedTotal.Seconds())
	}
	fmt.Println("  (the paper: with 4G \"the period of powerboosting time might be extremely short\")")
	return nil
}

func runMPTCP(seed int64) error {
	fmt.Println("§5.2 MPTCP note: coupled vs uncoupled congestion control (pkts/round)")
	paths := mptcp.ADSLPlus3G()
	for _, cc := range []mptcp.CongestionControl{mptcp.Uncoupled, mptcp.Coupled} {
		res := mptcp.Simulate(cc, paths, 50000, seed)
		var parts []string
		for i, p := range paths {
			parts = append(parts, fmt.Sprintf("%s %.1f (util %.0f%%)",
				p.Name, res.Goodput[i], 100*res.Utilization[i]))
		}
		fmt.Printf("  %-14s aggregate %5.1f   %s\n", cc, res.Aggregate, strings.Join(parts, ", "))
	}
	adslOnly := mptcp.Simulate(mptcp.Uncoupled, paths[:1], 50000, seed)
	fmt.Printf("  ADSL-only TCP  aggregate %5.1f   (coupled MPTCP adds little — the paper's finding)\n",
		adslOnly.Aggregate)
	return nil
}

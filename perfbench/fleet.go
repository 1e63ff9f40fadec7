package main

import (
	"fmt"
	"runtime"
	"time"

	"threegol/internal/fault"
	"threegol/internal/fleet"
	"threegol/internal/obs/eventlog"
)

// The fleet workload: a million-home city (one DSLAM of 18,000 homes
// and 8 shards, ×56) simulated for a day, then hostile chaos runs, all
// on nproc workers.
const (
	fleetScale      = 56
	fleetHomes      = 18000 * fleetScale
	fleetShards     = 8 * fleetScale
	chaosHomes      = 4096
	chaosRuns       = 3 // chaos runs per iteration
	fleetWorkers    = 2
	chaosMeanItemKB = 700 // chaos items are uniform on 200 kB – 1.2 MB
)

// fleetIteration is one measured Run and its chaos runs.
type fleetIteration struct {
	run              float64 // wall seconds
	chaos            []float64
	runAllocs        uint64
	chaosAllocs      uint64
	report           fleet.Report
	chaosReports     []fleet.ChaosReport
	runErr, chaosErr error
}

// checkFleetReport applies the checks of 3golfleet -validate to a
// fleet report.
func checkFleetReport(rep fleet.Report, wall float64, allocs uint64) error {
	switch {
	case rep.Homes <= 0:
		return fmt.Errorf("homes = %d, want > 0", rep.Homes)
	case rep.Viewers <= 0 || rep.Viewers > rep.Homes:
		return fmt.Errorf("viewers = %d outside (0, homes]", rep.Viewers)
	case rep.Sessions <= 0:
		return fmt.Errorf("sessions = %d, want > 0", rep.Sessions)
	case wall <= 0:
		return fmt.Errorf("wall seconds = %v, want > 0", wall)
	case allocs == 0:
		return fmt.Errorf("mallocs = 0, want > 0")
	case rep.SpeedupP50 < 1:
		return fmt.Errorf("speedup_p50 = %v, want ≥ 1", rep.SpeedupP50)
	case rep.BackhaulMbps <= 0:
		return fmt.Errorf("backhaul_mbps = %v, want > 0", rep.BackhaulMbps)
	}
	return nil
}

// checkChaosReport requires a healthy chaos run with no invariant
// violation.
func checkChaosReport(rep fleet.ChaosReport, homes int) error {
	switch {
	case !rep.Healthy():
		return fmt.Errorf("chaos run unhealthy: %d failed transactions, %d of %d items delivered",
			rep.Failed, rep.Delivered, rep.Items)
	case rep.NotExactlyOnce != 0 || rep.WasteBoundBreak != 0:
		return fmt.Errorf("chaos invariants violated: %d not exactly once, %d waste-bound breaks",
			rep.NotExactlyOnce, rep.WasteBoundBreak)
	case rep.Homes != int64(homes):
		return fmt.Errorf("chaos ran %d homes, want %d", rep.Homes, homes)
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fleetOnce runs one simulated day of homes over shards, then
// chaosRuns chaos runs of chaosN homes, from seed. It stops at the
// first failed run.
func fleetOnce(cfg runCfg, seed int64, homes, shards, chaosN int) fleetIteration {
	var it fleetIteration
	sp := cfg.tr.begin(eventlog.TraceContext{}, "bench.fleet_iteration")
	defer sp.End()

	run := cfg.tr.begin(sp.Context(), "fleet.run")
	m0, t0 := mallocs(), wall.Now()
	res, err := fleet.Run(fleet.Config{Homes: homes, Shards: shards, Seed: seed}, fleetWorkers)
	it.run, it.runAllocs = wall.Since(t0).Seconds(), mallocs()-m0
	run.End()
	if err != nil {
		it.runErr = err
	} else {
		it.report = res.Report()
	}

	for r := 0; r < chaosRuns; r++ {
		chaos := cfg.tr.begin(sp.Context(), "chaos.run")
		m0, t0 = mallocs(), wall.Now()
		cres, err := fleet.RunChaos(fleet.ChaosConfig{Homes: chaosN, Seed: seed + int64(r), Scenario: fault.ScenarioHostile}, fleetWorkers)
		it.chaos = append(it.chaos, wall.Since(t0).Seconds())
		it.chaosAllocs += mallocs() - m0
		chaos.End()
		if err != nil {
			it.chaosErr = err
			return it
		}
		it.chaosReports = append(it.chaosReports, cres.Report(fault.ScenarioHostile))
	}
	return it
}

func runFleet(cfg runCfg) (*outcome, error) {
	o := &outcome{named: make(map[string]float64)}
	speed := newSpeedometer()
	// Set-up: one DSLAM's worth of fleet and a small chaos run, which
	// fill the engine's pooled shard scratch before timing.
	var warmErr error
	var warm sample
	scales := speed.paced(func(rep int) bool {
		t0 := wall.Now()
		it := fleetOnce(runCfg{}, cfg.seed-1-int64(rep), fleetHomes/fleetScale, fleetShards/fleetScale, 256)
		warm = append(warm, wall.Since(t0).Seconds())
		if it.runErr != nil || it.chaosErr != nil {
			warmErr = fmt.Errorf("fleet warm-up: %v %v", it.runErr, it.chaosErr)
			return false
		}
		return rep+1 < 2*setupReps
	})
	if warmErr != nil {
		return nil, warmErr
	}
	for i, t := range warm {
		o.setup = append(o.setup, t*scales[i])
	}

	runtime.GC() // every window starts from a collected heap
	cfg.tr.mark()
	deadline := wall.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var its []fleetIteration
	var cpus sample
	scales = speed.paced(func(i int) bool {
		cpu0 := cpuSeconds()
		its = append(its, fleetOnce(cfg, cfg.seed*1000+int64(i)*chaosRuns, fleetHomes, fleetShards, chaosHomes))
		cpus = append(cpus, cpuSeconds()-cpu0)
		return wall.Now().Before(deadline)
	})

	var runS, chaosS, homes, chaosTx, runAllocs, chaosAllocs float64
	var requeues, dups, waste, items float64
	var runSample, chaosSample sample // raw
	var runScaled, chaosScaled sample // scaled
	for i, it := range its {
		o.attempted += fleetHomes + chaosRuns*chaosHomes
		if it.runErr != nil {
			o.failed += fleetHomes
			o.problem("fleet run: %v", it.runErr)
		} else if err := checkFleetReport(it.report, it.run, it.runAllocs); err != nil {
			o.failed += fleetHomes
			o.problem("fleet report: %v", err)
		} else {
			homes += float64(it.report.Homes)
			runS += it.run
			runSample = append(runSample, it.run)
			runScaled = append(runScaled, it.run*scales[i])
		}
		if it.chaosErr != nil {
			o.failed += int64(chaosRuns-len(it.chaosReports)) * chaosHomes
			o.problem("chaos run: %v", it.chaosErr)
		}
		for k, rep := range it.chaosReports {
			if err := checkChaosReport(rep, chaosHomes); err != nil {
				o.failed += max(rep.Failed, 1)
				o.problem("chaos report: %v", err)
				continue
			}
			chaosTx += float64(rep.Homes)
			chaosS += it.chaos[k]
			chaosSample = append(chaosSample, it.chaos[k])
			chaosScaled = append(chaosScaled, it.chaos[k]*scales[i])
			requeues += float64(rep.Requeues)
			dups += float64(rep.Duplicates)
			waste += float64(rep.DuplicateWaste + rep.FailureWaste)
			items += float64(rep.Items)
		}
		runAllocs += float64(it.runAllocs)
		chaosAllocs += float64(it.chaosAllocs)
		root := it.run
		for _, c := range it.chaos {
			root += c
		}
		o.roots = append(o.roots, root)
	}
	for i := range cpus {
		cpus[i] *= scales[i]
	}
	// Medians over iterations, each scaled to the reference host's
	// speed: fleet.Run homes per second, the chaos run's time and the
	// CPU per home of a whole iteration.
	o.workPerS = ratio(fleetHomes, runScaled.median())
	o.opP50ms = chaosScaled.median() * 1e3
	o.cpuPerWork = cpus.median() * 1e6 / (fleetHomes + chaosRuns*chaosHomes)
	o.named["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	o.named["fleet_homes_per_s"] = ratio(homes, runS)
	o.named["chaos_tx_per_s"] = ratio(chaosTx, chaosS)
	o.named["host.ref_ms"] = speed.ms.median()
	o.note("fleet: %d iterations of fleet.Run (%d homes × 1 day, %d shards) + %d× RunChaos (%d homes, hostile), %d workers; op is one chaos run; reference kernel median %.3f ms over %d runs",
		len(its), fleetHomes, fleetShards, chaosRuns, chaosHomes, fleetWorkers, speed.ms.median(), len(speed.ms))

	if cfg.tr != nil {
		o.layers = map[string]float64{
			"fleet.run_s":             runSample.median(),
			"fleet.allocs_per_home":   ratio(runAllocs, homes),
			"chaos.run_s":             chaosSample.median(),
			"chaos.allocs_per_tx":     ratio(chaosAllocs, chaosTx),
			"chaos.requeues_per_tx":   ratio(requeues, chaosTx),
			"chaos.duplicates_per_tx": ratio(dups, chaosTx),
			"chaos.waste_ratio":       ratio(waste, items*chaosMeanItemKB*1e3),
		}
	}
	return o, nil
}

// Command perfbench is the repository benchmark: four workloads that
// drive the live data plane (vod, upload), the permit plane (permit)
// and the fleet engine (fleet), each checked for correct output, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. METRICS.md maps every metric to the layers it measures.
//
//	perfbench --workload vod --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20 --trace 0
//	perfbench compare a.json b.json
//
// Run it through run.sh from the repository root, which builds it and
// the permit daemon first. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"threegol/internal/clock"
)

// wall is the clock every timing in the benchmark reads: the benchmark
// measures real elapsed time by design.
var wall = clock.Or(nil)

// runCfg is what a workload runs with.
type runCfg struct {
	seed    int64
	seconds float64
	tr      *tracer // nil for the untraced run
	permitd string  // path of the 3golpermitd binary
	scratch string  // directory for run-time files
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	problems          []string // failed output checks

	setup       sample // set-up durations, seconds
	childPeakKB int64  // peak resident set of child processes, KiB
	roots       sample // durations of the unit the trace's root spans cover

	// The workload's gated figures: work units per second, CPU µs per
	// work unit (child processes included) and the median operation
	// latency in ms, each estimated as METRICS.md describes.
	workPerS, cpuPerWork, opP50ms float64

	named  map[string]float64 // workload-specific end-to-end figures
	layers map[string]float64 // per-layer figures (traced run only)
	notes  []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs once under cfg. An error means the run could not be
// measured at all; wrong outputs are outcome.problems.
type workload struct {
	name string
	run  func(cfg runCfg) (*outcome, error)
	root string // name of the root span covering one outcome.roots unit
}

// workloads in the order --workload all runs them.
var workloads = []workload{
	{name: "vod", run: runVoD, root: "bench.vod_session"},
	{name: "upload", run: runUpload, root: "bench.upload_tx"},
	{name: "permit", run: runPermit, root: "loadgen.batch"},
	{name: "fleet", run: runFleet, root: "bench.fleet_iteration"},
}

// selectWorkloads resolves a --workload value: one workload's name, or
// all of them.
func selectWorkloads(name string) []workload {
	if name == "all" {
		return workloads
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: vod, upload, permit, fleet, or all to run each in turn")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
		permitd = flag.String("permitd", ".bench_build/bin/3golpermitd", "3golpermitd binary for the permit workload")
		out     = flag.String("out", ".bench_build", "directory for results, traces and run-time files")
	)
	flag.Parse()
	ws := selectWorkloads(*name)
	if len(ws) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload vod|upload|permit|fleet|all, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	code := 0
	for _, w := range ws {
		correct, err := run(w, *seed, *seconds, *trace == 1, *permitd, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		}
		if err != nil || !correct {
			code = 1
		}
	}
	os.Exit(code)
}

// result is the record written for each run.
type result struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Named       map[string]float64 `json:"named"`
	Problems    []string           `json:"problems,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

// run measures one workload and prints its result. It reports whether
// every output check passed.
func run(w workload, seed int64, seconds float64, traced bool, permitd, outDir string) (bool, error) {
	scratch, err := filepath.Abs(filepath.Join(outDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	fp := takeFingerprint(seed)
	fpJSON, _ := json.Marshal(fp) // plain struct; cannot fail
	fmt.Printf("fingerprint %s\n", fpJSON)

	cfg := runCfg{seed: seed, seconds: seconds, permitd: permitd, scratch: scratch}
	plain, err := w.run(cfg)
	if err != nil {
		return false, err
	}
	plain.named["peak_rss_mb"] = float64(peakRSSKB()+plain.childPeakKB) / 1024
	res := result{Workload: w.name, Trace: traced, Seconds: seconds, Fingerprint: fp, Named: plain.named}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	res.Problems = append(res.Problems, plain.problems...)
	res.Notes = append(res.Notes, plain.notes...)

	metrics := endToEndOf(plain)
	if traced {
		cfg.tr = newTracer(seed)
		tr, err := w.run(cfg)
		if err != nil {
			return false, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Problems = append(res.Problems, tr.problems...)
		metrics = traceReport(w, plain, tr, cfg.tr, outDir, seed, &res)
	}
	res.Metrics = metrics
	res.Correct = len(res.Problems) == 0

	printHuman(plain, &res, traced)
	if err := writeResult(outDir, &res, seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
	}
	line := map[string]any{
		"correct":   res.Correct,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   withUnits(metrics),
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return res.Correct, nil
}

// endToEndOf derives the gated metrics from an untraced outcome.
func endToEndOf(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":         o.setup.median(),
		"work_per_s":      o.workPerS,
		"cpu_us_per_work": o.cpuPerWork,
		"op_p50_ms":       o.opP50ms,
	}
}

// traceReport fills the per-layer metrics of a traced run, writes the
// trace as JSONL, and prints how the blocking self times account for
// the untraced end-to-end time.
func traceReport(w workload, plain, traced *outcome, tr *tracer, outDir string, seed int64, res *result) map[string]float64 {
	metrics := make(map[string]float64)
	for _, m := range perLayer() {
		metrics[m.name] = 0
	}
	for k, v := range traced.layers {
		metrics[k] = v
	}
	for k, v := range plain.named {
		metrics[k] = v
	}
	base, with := plain.roots.mean(), traced.roots.mean()
	overhead := 100 * (ratio(with, base) - 1)
	metrics["trace.overhead_pct"] = overhead

	events := tr.events()
	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeTrace(path, events); err != nil {
		res.Problems = append(res.Problems, err.Error())
	} else {
		fmt.Printf("trace %s (%d events)\n", path, len(events))
	}
	st := analyze(events)
	acc := st.blocking[w.root]
	nroots := len(st.roots[w.root])
	var names []string
	var total float64
	for k, v := range acc {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return acc[names[i]] > acc[names[j]] })
	for _, k := range names {
		fmt.Printf("blocking %-32s %10.3f ms/op %6.1f%%\n", k, 1e3*acc[k]/float64(max(nroots, 1)), 100*ratio(acc[k], total))
	}
	fmt.Printf("accounting: %d traced %s spans; blocking self times sum to %.3f ms/op, untraced %.3f ms/op over %d ops; trace.overhead_pct %.2f\n",
		nroots, w.root, 1e3*ratio(total, float64(nroots)), 1e3*base, len(plain.roots), overhead)
	return metrics
}

func withUnits(metrics map[string]float64) map[string]any {
	out := make(map[string]any, len(metrics))
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[k] = map[string]any{"value": v, "unit": unitOf(k)}
	}
	return out
}

func printHuman(plain *outcome, res *result, traced bool) {
	for _, n := range res.Notes {
		fmt.Printf("note %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Printf("CHECK FAILED %s\n", p)
	}
	e2e := endToEndOf(plain)
	for _, m := range endToEnd {
		fmt.Printf("metric %-36s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	for _, m := range named {
		if v, ok := plain.named[m.name]; ok {
			fmt.Printf("metric %-36s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if traced {
		for _, m := range layers {
			if v, ok := res.Metrics[m.name]; ok && v != 0 {
				fmt.Printf("layer  %-36s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	fmt.Printf("checks: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func writeResult(outDir string, res *result, seed int64) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if res.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, seed, t)), b, 0o644)
}

// fingerprint identifies the host a result was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func takeFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fp
}

// sameHost reports whether two fingerprints describe the same host
// and toolchain (the seed may differ).
func (fp fingerprint) sameHost(o fingerprint) bool {
	return fp.NProc == o.NProc && fp.GOMAXPROCS == o.GOMAXPROCS && fp.CPU == o.CPU &&
		fp.Go == o.Go && fp.Kernel == o.Kernel
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSKB is this process's peak resident set (VmHWM) in KiB.
func peakRSSKB() int64 {
	return procStatusKB("/proc/self/status", "VmHWM:")
}

func procStatusKB(path, key string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			var kb int64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb)
			return kb
		}
	}
	return 0
}

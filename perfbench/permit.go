package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
)

// The permit workload's population and load shape.
const (
	permitCells     = 256
	permitDevices   = 32768
	permitBatch     = 512
	permitPool      = 256 // distinct generated batches, cycled
	permitShards    = 4
	permitThreshold = 0.7
	permitTTL       = 10 * time.Minute // outlives a run: grant state only grows to the population
	permitConns     = 2                // nproc on the reference host
	// permitRefDPS is the reference offered rate latency is reported at.
	permitRefDPS = 25000
	// permitLimit is the ladder's tail-latency limit.
	permitLimit = 50 * time.Millisecond
)

// permitLadder are the offered rates tried for permit_max_dps, as
// multiples of the reference rate.
var permitLadder = []float64{2, 3, 4, 5}

// cellUtil is cell c's utilisation: cells cycle 0.0–0.9, so about 70%
// of decisions are grants at the 0.7 threshold.
func cellUtil(c int) float64 { return float64(c%10) / 10 }

func cellName(c int) string { return fmt.Sprintf("cell-%03d", c) }

// permitInputs is the seeded load: a fixed device population pinned to
// cells, and a pool of batches drawn from it.
type permitInputs struct {
	batches [][]permitplane.PermitRequest
	bodies  [][]byte
	util    map[string]float64
}

func genPermitInputs(seed int64) (*permitInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	cellOf := make([]int, permitDevices)
	for d := range cellOf {
		cellOf[d] = rng.Intn(permitCells)
	}
	in := &permitInputs{util: make(map[string]float64, permitCells)}
	for c := 0; c < permitCells; c++ {
		in.util[cellName(c)] = cellUtil(c)
	}
	for b := 0; b < permitPool; b++ {
		reqs := make([]permitplane.PermitRequest, permitBatch)
		for i := range reqs {
			d := rng.Intn(permitDevices)
			reqs[i] = permitplane.PermitRequest{Device: fmt.Sprintf("dev-%05d", d), Cell: cellName(cellOf[d])}
		}
		body, err := json.Marshal(permitplane.BatchRequest{Requests: reqs})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, reqs)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// checkDecisions counts the decisions that differ from (cell
// utilisation < threshold); a batch with the wrong number of decisions
// is wrong throughout.
func checkDecisions(reqs []permitplane.PermitRequest, got []permit.Response, util map[string]float64) (wrong int) {
	if len(got) != len(reqs) {
		return len(reqs)
	}
	for i, r := range reqs {
		if got[i].Granted != (util[r.Cell] < permitThreshold) {
			wrong++
		}
	}
	return wrong
}

// daemon is one running 3golpermitd child.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	walDir string
	stderr bytes.Buffer
	probes int // requests sent to check readiness
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon boots a durable 4-shard daemon, feeds it every cell's
// utilisation on stdin and returns once it answers with the feed
// applied (it fails closed on cells the feed has not reached yet).
func startDaemon(bin, walDir string, util map[string]float64) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + addr, walDir: walDir}
	d.cmd = exec.Command(bin, "-listen", addr, "-shards", strconv.Itoa(permitShards), "-wal", walDir,
		"-stdin-feed", "-deny-unknown", "-threshold", strconv.FormatFloat(permitThreshold, 'f', -1, 64),
		"-ttl", permitTTL.String(), "-drain", "5s")
	d.cmd.Stderr = &d.stderr
	// The daemon dies with the benchmark even when the benchmark is
	// killed before it can stop it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if d.stdin, err = d.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	var feed strings.Builder
	for c := 0; c < permitCells; c++ {
		fmt.Fprintf(&feed, "%s %g\n", cellName(c), util[cellName(c)])
	}
	if _, err := io.WriteString(d.stdin, feed.String()); err != nil {
		d.kill()
		return nil, fmt.Errorf("feeding utilisation: %w", err)
	}
	// The last fed cell (utilisation 0.5) is granted once the feed is in.
	probe, _ := json.Marshal(permitplane.BatchRequest{Requests: []permitplane.PermitRequest{{Device: "probe", Cell: cellName(permitCells - 1)}}})
	deadline := wall.Now().Add(10 * time.Second)
	for {
		var out permitplane.BatchResponse
		resp, err := http.Post(d.url+"/permits/batch", "application/json", bytes.NewReader(probe))
		if err == nil {
			d.probes++
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err == nil && len(out.Decisions) == 1 && out.Decisions[0].Granted {
				return d, nil
			}
		}
		if wall.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("3golpermitd not ready after 10s: %v; stderr: %s", err, d.stderr.String())
		}
		wall.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (graceful drain and final snapshot) and waits.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.stdin.Close()
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		d.stdin.Close()
		return fmt.Errorf("3golpermitd did not exit within 15s of SIGTERM")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // reaps it; the error is the kill
	d.stdin.Close()
}

// cpuSeconds reads the child's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ
}

func (d *daemon) shards() ([]permitplane.ShardStatus, error) {
	resp, err := http.Get(d.url + "/debug/shards")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st []permitplane.ShardStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// batchResult is one batch of the load.
type batchResult struct {
	due, sent, done time.Time
	reqs            int
	wrong           int
	err             error
}

func (r batchResult) latency() float64 { return r.done.Sub(r.due).Seconds() }
func (r batchResult) late() float64    { return r.sent.Sub(r.due).Seconds() }

// loadgen sends the generated batches over permitConns connections.
type loadgen struct {
	url     string
	in      *permitInputs
	clients []*http.Client
	tr      *tracer
	next    atomic.Int64 // batches taken from the pool
	served  atomic.Int64 // requests in batches the daemon answered with 200
}

func newLoadgen(url string, in *permitInputs, tr *tracer) *loadgen {
	g := &loadgen{url: url, in: in, tr: tr}
	for i := 0; i < permitConns; i++ {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		g.clients = append(g.clients, &http.Client{Transport: tr.transport(t, "permit", constName("http.batch"))})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// send posts the next pooled batch on client c; due is when it was
// scheduled to go.
func (g *loadgen) send(c *http.Client, due time.Time) batchResult {
	idx := int(g.next.Add(1)-1) % len(g.in.bodies)
	reqs := g.in.batches[idx]
	res := batchResult{due: due, reqs: len(reqs)}
	var sp eventlog.Span
	if g.tr != nil {
		sp = g.tr.log.BeginAt(g.tr.log.Now()-wall.Since(due).Seconds(), eventlog.TraceContext{}, "loadgen.batch")
		defer sp.End()
	}
	res.sent = wall.Now()
	req, err := http.NewRequestWithContext(eventlog.NewContext(context.Background(), sp.Context()),
		http.MethodPost, g.url+"/permits/batch", bytes.NewReader(g.in.bodies[idx]))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		res.err, res.done = err, wall.Now()
		return res
	}
	var out permitplane.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	res.done = wall.Now()
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("status %s", resp.Status)
	default:
		res.wrong = checkDecisions(reqs, out.Decisions, g.in.util)
		g.served.Add(int64(len(reqs)))
	}
	return res
}

// openLoop offers batches at rate decisions/s for dur, each due at its
// scheduled time whether or not earlier batches have returned; a batch
// waits for a free connection, and that wait counts in its latency.
func (g *loadgen) openLoop(rate float64, dur time.Duration) []batchResult {
	interval := time.Duration(float64(time.Second) * permitBatch / rate)
	n := int(dur / interval)
	results := make([]batchResult, n)
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				waitUntil(j.due)
				results[j.k] = g.send(c, j.due)
			}
		}()
	}
	start := wall.Now()
	for k := 0; k < n; k++ {
		jobs <- job{k, start.Add(time.Duration(k) * interval)}
	}
	close(jobs)
	wg.Wait()
	return results
}

// waitUntil returns at t: it sleeps until shortly before and yields
// the rest, because a sleep alone overshoots by up to a millisecond on
// a virtual machine's timer, which would count as generator lateness.
func waitUntil(t time.Time) {
	const spin = 1500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		wall.Sleep(d)
	}
	for wall.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop keeps every connection busy back to back for dur.
func (g *loadgen) closedLoop(dur time.Duration) []batchResult {
	var mu sync.Mutex
	var results []batchResult
	deadline := wall.Now().Add(dur)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wall.Now().Before(deadline) {
				r := g.send(c, wall.Now())
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// tally folds batch results into the outcome's counts and returns the
// latencies of the batches that succeeded, and whether all did.
func tally(o *outcome, rs []batchResult) (lat, late sample, allOK bool) {
	allOK = true
	for _, r := range rs {
		o.attempted += int64(r.reqs)
		switch {
		case r.err != nil:
			o.failed += int64(r.reqs)
			o.problem("permit batch: %v", r.err)
			allOK = false
		case r.wrong > 0:
			o.failed += int64(r.wrong)
			o.problem("permit batch: %d of %d decisions differ from (utilisation < threshold)", r.wrong, r.reqs)
			allOK = false
		}
		if r.err == nil {
			lat = append(lat, r.latency())
			late = append(late, r.late())
		}
	}
	return lat, late, allOK
}

// ladder offers the rates of permitLadder in turn, each for rung, and
// returns the highest that every batch met with a tail
// latency within permitLimit and no growing backlog (the last batch
// left no later than permitLimit after its schedule).
func ladder(o *outcome, g *loadgen, rung time.Duration) float64 {
	best := 0.0
	for _, mult := range permitLadder {
		rate := permitRefDPS * mult
		lat, late, allOK := tally(o, g.openLoop(rate, rung))
		_, tail, ok := lat.tail()
		backlog := len(late) > 0 && late[len(late)-1] > permitLimit.Seconds()
		if !allOK || !ok || tail > permitLimit.Seconds() || backlog {
			break
		}
		best = rate
	}
	return best
}

func runPermit(cfg runCfg) (*outcome, error) {
	o := &outcome{named: make(map[string]float64)}
	in, err := genPermitInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(cfg.permitd)
	if err != nil {
		return nil, err
	}

	// Set-up: boot the durable daemon until it serves with the feed
	// applied; repeated, keeping the last.
	speed := newSpeedometer()
	var d *daemon
	var boots sample
	scales := speed.paced(func(rep int) bool {
		if d != nil {
			if err = d.stop(); err != nil {
				return false
			}
		}
		t0 := wall.Now()
		if d, err = startDaemon(bin, filepath.Join(cfg.scratch, fmt.Sprintf("wal-%d", rep)), in.util); err != nil {
			return false
		}
		boots = append(boots, wall.Since(t0).Seconds())
		return rep+1 < 3*setupReps
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	for i, b := range boots {
		o.setup = append(o.setup, b*scales[i])
	}

	g := newLoadgen(d.url, in, cfg.tr)
	defer g.close()
	s := time.Duration(cfg.seconds * float64(time.Second))
	phase := func(frac float64) time.Duration { return time.Duration(frac * float64(s)) }

	// The measured loops run in chunks of a twentieth of the run, paced
	// by the reference kernel, which runs between chunks while the
	// daemon idles.
	chunk := phase(0.05)
	tally(o, g.openLoop(permitRefDPS, chunk)) // warm-up: connections and grant state
	runtime.GC()                              // every window starts from a collected heap
	cfg.tr.mark()
	var lat, late sample
	var latByChunk []sample
	var refCPU float64
	scales = speed.paced(func(k int) bool {
		dcpu0 := d.cpuSeconds()
		l, lt, _ := tally(o, g.openLoop(permitRefDPS, chunk))
		refCPU += d.cpuSeconds() - dcpu0
		lat, late = append(lat, l...), append(late, lt...)
		latByChunk = append(latByChunk, l)
		return k+1 < 6
	})
	var latScaled sample
	for k, l := range latByChunk {
		latScaled = append(latScaled, l.scaled(scales[k])...)
	}
	refDecisions := float64(len(lat) * permitBatch)
	o.note("permit: open loop at %d decisions/s over %d connections, %d batches of %d; generator late p50 %.3f ms",
		permitRefDPS, permitConns, len(lat), permitBatch, late.median()*1e3)
	o.roots = lat
	o.named["permit_p50_ms"] = lat.median() * 1e3
	if tq, tail, ok := lat.tail(); ok {
		o.named["permit_tail_ms"] = tail * 1e3
		o.note("permit: tail is p%g of %d batches", 100*tq, len(lat))
	}
	// The traced run stops at the reference rate: its spans then cover
	// the same batches as the untraced run's latencies.
	if cfg.tr == nil {
		o.named["permit_max_dps"] = ladder(o, g, chunk)
		var satByChunk []sample
		var dcpus []float64
		var cpu float64
		scales = speed.paced(func(k int) bool {
			cpu0, dcpu0 := cpuSeconds(), d.cpuSeconds()
			l, _, _ := tally(o, g.closedLoop(chunk))
			cpu += cpuSeconds() - cpu0
			dcpus = append(dcpus, d.cpuSeconds()-dcpu0)
			satByChunk = append(satByChunk, l)
			return k+1 < 8
		})
		var satScaled sample
		var dcpu, decisions float64 // dcpu scaled
		for k, l := range satByChunk {
			satScaled = append(satScaled, l.scaled(scales[k])...)
			dcpu += dcpus[k] * scales[k]
			decisions += float64(len(l) * permitBatch)
		}
		// Scaled to the reference host's speed: capacity at the median
		// batch time of each connection (a stall of the host or a GC
		// pause does not move it), the median reference-rate latency,
		// and the daemon's CPU alone (the generator's request encoding
		// and response decoding would dilute a regression in the
		// daemon).
		o.workPerS = ratio(permitConns*permitBatch, satScaled.median())
		o.opP50ms = latScaled.median() * 1e3
		o.cpuPerWork = ratio(dcpu*1e6, decisions)
		o.named["loadgen.cpu_us_per_decision"] = ratio(cpu*1e6, decisions)
		o.named["host.ref_ms"] = speed.ms.median()
		o.note("permit: work_per_s is %d connections × %d decisions over the median batch time of a closed loop (%d batches); reference kernel median %.3f ms over %d runs",
			permitConns, permitBatch, len(satScaled), speed.ms.median(), len(speed.ms))
	}
	o.childPeakKB = procStatusKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:")
	o.named["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))

	// Output checks: the daemon counted every decision it returned as a
	// grant or a denial, and each shard's WAL replays to the state the
	// daemon reported.
	st, err := d.shards()
	if err != nil {
		return nil, fmt.Errorf("reading /debug/shards: %w", err)
	}
	var counted, walErrors int64
	var perShard sample
	for _, sh := range st {
		counted += sh.Grants + sh.Denials
		walErrors += sh.WALErrors
		perShard = append(perShard, float64(sh.Grants+sh.Denials))
	}
	if want := g.served.Load() + int64(d.probes); counted != want {
		o.problem("permit: daemon counted %d grants + denials, %d decisions were returned", counted, want)
	}
	// The idle daemon's live WAL (last snapshot plus the grant, refresh
	// and revoke records after it) must fold to the state it reports;
	// after the drain, whose final snapshot is written from memory, it
	// must still.
	folded := checkReplay(o, d.walDir, st, "live")
	o.note("permit: the live WAL replay folded %d records on top of the shards' snapshots", folded)
	stopped = true
	if err := d.stop(); err != nil {
		o.problem("permit: daemon shutdown: %v", err)
	}
	checkReplay(o, d.walDir, st, "drained")

	if cfg.tr != nil {
		o.layers, err = permitLayers(cfg, in, lat, late)
		if err != nil {
			return nil, err
		}
		var maxShard float64
		for _, v := range perShard {
			maxShard = max(maxShard, v)
		}
		o.layers["permitplane.shard_skew"] = ratio(maxShard, perShard.mean())
		o.layers["permitplane.wal_errors"] = float64(walErrors)
		o.layers["permitd.cpu_us_per_decision"] = ratio(refCPU*1e6, refDecisions)
	}
	return o, nil
}

// checkReplay replays each shard's WAL read-only and records a problem
// for each shard whose state does not hash to the state_hash the daemon
// reported in st. It returns how many log records the replays folded on
// top of the snapshots.
func checkReplay(o *outcome, walDir string, st []permitplane.ShardStatus, when string) (folded int64) {
	for _, sh := range st {
		state, stats, err := wal.Replay(permitplane.ShardWALDir(walDir, sh.Shard))
		if err != nil {
			o.problem("permit: replaying shard %d (%s): %v", sh.Shard, when, err)
			continue
		}
		folded += stats.RecordsReplayed
		if h := permitplane.HashState(state); h != sh.StateHash {
			o.problem("permit: shard %d %s WAL replays to %.12s, daemon reported %.12s", sh.Shard, when, h, sh.StateHash)
		}
	}
	return folded
}

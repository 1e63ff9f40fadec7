// Package scheduler implements the paper's multipath transfer scheduler —
// the component at the heart of 3GOL (§4.1.1). A transaction moves M
// items (video segments, photos) over N paths (the ADSL line plus the
// admissible set Φ of 3G devices) so as to minimise total transfer time.
//
// Three policies match the paper's Fig. 6 comparison, plus the paper's
// deferred playout extension:
//
//   - Greedy (GRD): each path pulls the next unassigned item as soon as it
//     goes idle; when no items remain, an idle path duplicates the oldest
//     still-in-flight item, and the first replica to finish cancels the
//     others. Wasted bytes are bounded by (N−1)·Sm, Sm the largest item.
//   - RoundRobin (RR): items are dealt cyclically onto the paths up front.
//   - MinTime (MIN): each item goes to the path with the smallest
//     estimated completion time, with per-path bandwidth estimated by
//     exponential smoothing (filter parameter 0.75) seeded round-robin —
//     the estimator whose poor accuracy under wireless variability makes
//     MIN the worst performer in the paper.
//   - Playout: greedy with a head-of-line endgame — the in-order
//     delivery variant the paper leaves as future work.
//
// GRD and PLAYOUT, with their resilience stack (retry budgets, requeue,
// backoff, the circuit breaker), are decided by Core: one
// single-threaded, clock-free state machine. Run drives it live, one
// goroutine per path; internal/fault's Simulate drives the same Core in
// virtual time, so the fleet chaos harness checks the policy that
// ships.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
)

// Item is one unit of a transaction: an HLS segment, a photo, a file.
type Item struct {
	// ID indexes the item within its transaction (0-based, dense).
	ID int
	// Name is a diagnostic/transport label, e.g. the URI to fetch.
	Name string
	// Size is the item's size in bytes (used by MIN's estimator and for
	// waste accounting; GRD and RR work even when 0).
	Size int64
}

// Path is one transport channel: the direct ADSL route or one 3G device's
// proxy. Transfer moves a single item, blocking until done, cancelled, or
// failed; it returns the bytes actually moved (partial counts on abort).
// Implementations must honour ctx cancellation promptly — the greedy
// endgame relies on it to cancel losing replicas.
type Path interface {
	Name() string
	Transfer(ctx context.Context, item Item) (int64, error)
}

// Algo selects a scheduling policy.
type Algo int

// Scheduling policies.
const (
	Greedy Algo = iota
	RoundRobin
	MinTime
	// Playout is the paper's deferred extension (§4.1.1: "we could
	// modify the scheduler to cover also the playout phase"): greedy
	// assignment, but the endgame duplicates the head-of-line item —
	// the lowest-ID incomplete segment, i.e. the one the player is
	// blocked on — instead of the oldest-assigned one, trading a little
	// total-transfer time for smoother in-order delivery.
	Playout
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case Greedy:
		return "GRD"
	case RoundRobin:
		return "RR"
	case MinTime:
		return "MIN"
	case Playout:
		return "PLAYOUT"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Options tune a transaction.
type Options struct {
	// MinAlpha is MIN's exponential smoothing weight on the newest
	// bandwidth sample. Zero selects the paper's 0.75.
	MinAlpha float64
	// InitialBandwidth seeds MIN's estimator per path (bits/s). Nil or
	// missing entries default to 1 Mbps.
	InitialBandwidth map[string]float64
	// OnItemDone, when non-nil, fires at each item's first successful
	// completion with the elapsed time since the transaction started.
	// Callbacks are serialised.
	OnItemDone func(Item, time.Duration)
	// Resilience configures retry budgets, endgame duplication,
	// backoff, the stall watchdog and the breaker.
	Resilience
	// Clock supplies elapsed-time measurement; nil selects the system
	// clock. Tests and virtual-time harnesses inject a fake here.
	Clock clock.Clock
	// Metrics, when non-nil, receives per-path instrumentation (see
	// NewMetrics); latencies are measured on Clock.
	Metrics *Metrics
	// Events, when non-nil, receives flight-recorder events: the
	// transaction root span plus every assignment, attempt, retry,
	// requeue, endgame duplicate and completion. The attempt span's
	// TraceContext rides the transfer context, so instrumented paths
	// (internal/transfer) extend the same trace.
	Events *eventlog.Log
	// Trace parents the transaction's root span — stitching it under a
	// caller's span (e.g. a client request). Zero starts a new trace.
	Trace eventlog.TraceContext
}

func (o Options) minAlpha() float64 {
	if o.MinAlpha <= 0 || o.MinAlpha > 1 {
		return 0.75
	}
	return o.MinAlpha
}

// PathStats aggregates per-path activity within a Report.
type PathStats struct {
	Items int   // completed (winning) transfers
	Bytes int64 // all bytes moved, including losing replicas
}

// Report is the outcome of a transaction.
type Report struct {
	Algo    Algo
	Elapsed time.Duration
	// ItemDone[i] is the elapsed time at which item i first completed.
	ItemDone []time.Duration
	// WastedBytes counts bytes moved by replicas that lost the endgame
	// race (GRD only).
	WastedBytes int64
	// Duplicates counts endgame replica launches (GRD only).
	Duplicates int
	// PerPath maps path name to its activity.
	PerPath map[string]PathStats
}

// TotalBytes sums all bytes moved over all paths (useful bytes + waste).
func (r *Report) TotalBytes() int64 {
	var t int64
	for _, s := range r.PerPath {
		t += s.Bytes
	}
	return t
}

// Run executes one transaction: transfers every item over the given paths
// under the selected policy. It returns a Report on success. An error is
// returned when ctx is cancelled or an item exhausts its retries on the
// policy's designated path(s).
func Run(ctx context.Context, algo Algo, items []Item, paths []Path, opts Options) (*Report, error) {
	if len(paths) == 0 {
		return nil, errors.New("scheduler: no paths")
	}
	for i, it := range items {
		if it.ID != i {
			return nil, fmt.Errorf("scheduler: item %d has ID %d; IDs must be dense and ordered", i, it.ID)
		}
	}
	rep := &Report{
		Algo:     algo,
		ItemDone: make([]time.Duration, len(items)),
		PerPath:  make(map[string]PathStats, len(paths)),
	}
	for _, p := range paths {
		rep.PerPath[p.Name()] = PathStats{}
	}
	if len(items) == 0 {
		return rep, nil
	}
	clk := clock.Or(opts.Clock)
	start := clk.Now()
	tx := opts.Events.Begin(opts.Trace, "scheduler.transaction",
		"algo", algo.String(),
		"items", eventlog.Int(int64(len(items))),
		"paths", eventlog.Int(int64(len(paths))))
	if tx.Context().Valid() {
		// Workers parent their spans to the transaction, not the caller.
		opts.Trace = tx.Context()
	}
	var err error
	switch algo {
	case Greedy, Playout:
		err = runGreedy(ctx, algo, items, paths, opts, rep, clk, start)
	case RoundRobin:
		err = runRoundRobin(ctx, items, paths, opts, rep, clk, start)
	case MinTime:
		err = runMinTime(ctx, items, paths, opts, rep, clk, start)
	default:
		err = fmt.Errorf("scheduler: unknown algorithm %v", algo)
	}
	if err != nil {
		tx.End("outcome", "error", "error", err.Error())
		return nil, err
	}
	rep.Elapsed = clk.Since(start)
	tx.End("outcome", "ok", "elapsed_s", eventlog.Float(rep.Elapsed.Seconds()))
	return rep, nil
}

// tracker serialises completion bookkeeping shared by all policies.
type tracker struct {
	mu    sync.Mutex
	rep   *Report
	clk   clock.Clock
	start time.Time
	opts  Options
	// bo is the fixed-queue policies' retry delay, guarded by mu.
	bo   backoff
	done []bool
	left int
	// doneCh closes when the last item completes, so workers sleeping
	// out a backoff or breaker cooldown wake instead of delaying the
	// transaction's return.
	doneCh chan struct{}
}

func newTracker(rep *Report, clk clock.Clock, start time.Time, n int, opts Options) *tracker {
	return &tracker{rep: rep, clk: clk, start: start, opts: opts, bo: newBackoff(opts.Backoff),
		done: make([]bool, n), left: n, doneCh: make(chan struct{})}
}

// complete records the first successful completion of item. It reports
// whether this call was the winner (false when another replica already
// completed the item).
func (t *tracker) complete(item Item, pathName string, bytes int64) bool {
	t.mu.Lock() //3golvet:allow locksafe — unlocks early so the OnItemDone callback runs outside the lock
	t.addBytesLocked(pathName, bytes)
	if t.done[item.ID] {
		t.mu.Unlock()
		return false
	}
	t.done[item.ID] = true
	t.left--
	if t.left == 0 {
		close(t.doneCh)
	}
	elapsed := t.clk.Since(t.start)
	t.rep.ItemDone[item.ID] = elapsed
	st := t.rep.PerPath[pathName]
	st.Items++
	t.rep.PerPath[pathName] = st
	cb := t.opts.OnItemDone
	t.mu.Unlock()
	t.opts.Metrics.completed(pathName, elapsed.Seconds())
	t.opts.Events.Point(t.opts.Trace, "scheduler.item_done",
		"item", eventlog.Int(int64(item.ID)), "path", pathName,
		"elapsed_s", eventlog.Float(elapsed.Seconds()))
	if cb != nil {
		cb(item, elapsed)
	}
	return true
}

// addBytes accounts bytes moved on a path without completing anything
// (aborted replicas, failed attempts).
func (t *tracker) addBytes(pathName string, bytes int64) {
	t.mu.Lock()
	t.addBytesLocked(pathName, bytes)
	t.mu.Unlock()
}

func (t *tracker) addBytesLocked(pathName string, bytes int64) {
	st := t.rep.PerPath[pathName]
	st.Bytes += bytes
	t.rep.PerPath[pathName] = st
	t.opts.Metrics.movedBytes(pathName, bytes)
}

// retryDelay is the backoff before the k-th same-path retry (0-based).
func (t *tracker) retryDelay(k int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return seconds(t.bo.delay(k))
}

// seconds converts core time to a Duration, rounding up so a driver
// that sleeps it reaches the core's horizon.
func seconds(s float64) time.Duration {
	return time.Duration(math.Ceil(s * float64(time.Second)))
}

// remaining reports how many items have not yet completed.
func (t *tracker) remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.left
}

func (t *tracker) addWaste(bytes int64) {
	t.mu.Lock()
	t.rep.WastedBytes += bytes
	t.mu.Unlock()
	t.opts.Metrics.wasted(bytes)
}

func (t *tracker) addDuplicate(pathName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.Duplicates++
	t.opts.Metrics.duplicated(pathName)
}

// ----- Round robin -----

func runRoundRobin(ctx context.Context, items []Item, paths []Path, opts Options, rep *Report, clk clock.Clock, start time.Time) error {
	trk := newTracker(rep, clk, start, len(items), opts)
	queues := make([][]Item, len(paths))
	for i, it := range items {
		q := i % len(paths)
		queues[q] = append(queues[q], it)
	}
	return drainQueues(ctx, queues, paths, opts, trk)
}

// drainQueues runs one worker per path over fixed queues with per-item
// retry on the same path (no stealing) — shared by RR and MIN.
func drainQueues(ctx context.Context, queues [][]Item, paths []Path, opts Options, trk *tracker) error {
	g := newErrGroup(ctx)
	for i, p := range paths {
		q := queues[i]
		p := p
		g.go_(func(ctx context.Context) error {
			for _, it := range q {
				if err := transferWithRetry(ctx, p, it, opts.maxRetries(), trk, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return g.wait()
}

// transferWithRetry attempts item on path up to maxRetries times; each
// successful completion is recorded in trk. onSample, when non-nil,
// receives (bytes, seconds) of every successful attempt; seconds may be
// 0 on a clock that did not advance.
func transferWithRetry(ctx context.Context, p Path, it Item, maxRetries int, trk *tracker, onSample func(bytes int64, seconds float64)) error {
	trk.opts.Metrics.assigned(p.Name())
	ev, tc := trk.opts.Events, trk.opts.Trace
	ev.Point(tc, "scheduler.assign",
		"item", eventlog.Int(int64(it.ID)), "path", p.Name())
	var lastErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			if d := trk.retryDelay(attempt - 1); d > 0 {
				trk.opts.Metrics.backedOff(p.Name())
				ev.Point(tc, "scheduler.backoff",
					"item", eventlog.Int(int64(it.ID)), "path", p.Name(),
					"delay_s", eventlog.Float(d.Seconds()))
				if !trk.sleepFor(ctx, d) && ctx.Err() != nil {
					return ctx.Err()
				}
			}
		}
		t0 := trk.clk.Now()
		sp := ev.Begin(tc, "scheduler.attempt",
			"item", eventlog.Int(int64(it.ID)), "path", p.Name(),
			"try", eventlog.Int(int64(attempt)))
		n, err, stalled := runAttempt(eventlog.NewContext(ctx, sp.Context()), p, it, trk)
		if err == nil {
			sp.End("outcome", "ok", "bytes", eventlog.Int(n))
			trk.complete(it, p.Name(), n)
			if onSample != nil {
				onSample(n, trk.clk.Since(t0).Seconds())
			}
			return nil
		}
		trk.addBytes(p.Name(), n)
		if ctx.Err() != nil {
			sp.End("outcome", "cancelled", "bytes", eventlog.Int(n))
			return ctx.Err()
		}
		sp.End("outcome", "error", "bytes", eventlog.Int(n), "error", err.Error())
		if stalled {
			trk.opts.Metrics.stallAborted(p.Name())
			ev.Point(tc, "scheduler.stall",
				"item", eventlog.Int(int64(it.ID)), "path", p.Name(),
				"timeout_s", eventlog.Float(trk.opts.StallTimeout.Seconds()))
		}
		trk.opts.Metrics.retried(p.Name())
		ev.Point(tc, "scheduler.retry",
			"item", eventlog.Int(int64(it.ID)), "path", p.Name(),
			"try", eventlog.Int(int64(attempt)))
		lastErr = err
	}
	ev.Point(tc, "scheduler.exhausted",
		"item", eventlog.Int(int64(it.ID)), "path", p.Name())
	return &ItemError{ItemID: it.ID, ItemName: it.Name, PathName: p.Name(),
		Attempts: maxRetries, Err: lastErr}
}

// ----- MIN (estimated minimum completion time) -----

func runMinTime(ctx context.Context, items []Item, paths []Path, opts Options, rep *Report, clk clock.Clock, start time.Time) error {
	trk := newTracker(rep, clk, start, len(items), opts)
	n := len(paths)

	type pathState struct {
		est     float64 // bits/s estimate
		sampled bool    // has at least one measured transfer
		backlog int64   // bytes assigned but not completed
		queue   chan Item
	}
	states := make([]*pathState, n)
	for i, p := range paths {
		est := 1e6 // default 1 Mbps
		if opts.InitialBandwidth != nil {
			if v, ok := opts.InitialBandwidth[p.Name()]; ok && v > 0 {
				est = v
			}
		}
		states[i] = &pathState{est: est, queue: make(chan Item, len(items))}
	}

	var mu sync.Mutex // guards states and the assignment cursor
	next := 0
	bulkDone := false
	alpha := opts.minAlpha()

	assignTo := func(st *pathState, it Item) {
		st.backlog += it.Size
		st.queue <- it
	}

	// minEstPath returns the path with the smallest estimated completion
	// time for an item of the given size. Caller holds mu.
	minEstPath := func(size int64) *pathState {
		var best *pathState
		bestT := 0.0
		for _, st := range states {
			estT := float64(st.backlog+size) * 8 / st.est
			if best == nil || estT < bestT {
				best, bestT = st, estT
			}
		}
		return best
	}

	// maybeBulkAssign performs the paper's one-shot assignment: once every
	// path has produced a bandwidth sample (the round-robin initialisation
	// is over), all remaining items are placed onto the paths minimising
	// their estimated completion time — and never rebalanced. Deep queues
	// built from noisy early samples are exactly why MIN underperforms
	// under wireless variability. Caller holds mu.
	maybeBulkAssign := func() {
		if bulkDone {
			return
		}
		for _, st := range states {
			if !st.sampled {
				return
			}
		}
		bulkDone = true
		for ; next < len(items); next++ {
			it := items[next]
			assignTo(minEstPath(it.Size), it)
		}
	}

	// Seed: first N items round-robin (initialisation per the paper).
	mu.Lock()
	for i := 0; i < n && next < len(items); i++ {
		assignTo(states[i], items[next])
		next++
	}
	mu.Unlock()

	// allDone releases workers whose queues will never be fed again.
	allDone := make(chan struct{})
	var doneOnce sync.Once

	g := newErrGroup(ctx)
	for i, p := range paths {
		st := states[i]
		p := p
		g.go_(func(ctx context.Context) error {
			for {
				var it Item
				select {
				case it = <-st.queue:
				default:
					// Queue momentarily empty: wait for new work, global
					// completion, or cancellation. MIN never steals.
					select {
					case it = <-st.queue:
					case <-allDone:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				err := transferWithRetry(ctx, p, it, opts.maxRetries(), trk, func(bytes int64, secs float64) {
					mu.Lock()
					if secs > 0 {
						// An attempt that took no measurable time carries no
						// bandwidth information; the bookkeeping below must
						// still run or the assignment stalls.
						st.est = alpha*(float64(bytes)*8/secs) + (1-alpha)*st.est
					}
					st.sampled = true
					st.backlog -= it.Size
					if !bulkDone && next < len(items) {
						// Still initialising: keep this path busy with the
						// next item in order, and bulk-assign the moment
						// every path has a sample.
						maybeBulkAssign()
						if !bulkDone {
							assignTo(st, items[next])
							next++
							maybeBulkAssign()
						}
					}
					mu.Unlock()
				})
				if err != nil {
					return err
				}
				if trk.remaining() == 0 {
					doneOnce.Do(func() { close(allDone) })
					return nil
				}
			}
		})
	}
	return g.wait()
}

// ----- Greedy with endgame duplication -----

// runGreedy is the live driver of the greedy Core: one goroutine per
// path, all policy decisions taken by the core under one mutex, and
// the core's result flags turned into metrics and flight-recorder
// events.
func runGreedy(ctx context.Context, algo Algo, items []Item, paths []Path, opts Options, rep *Report, clk clock.Clock, start time.Time) error {
	trk := newTracker(rep, clk, start, len(items), opts)
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		core    = NewCore(algo, len(items), len(paths), opts.Resilience)
		cancels = make([]context.CancelFunc, len(paths)) // running replica per path
		failed  error
	)
	now := func() float64 { return clk.Since(start).Seconds() }
	g := newErrGroup(ctx)
	// Wake all cond waiters when the group context dies (parent cancel or
	// a worker error) so they can exit.
	stopWake := context.AfterFunc(g.ctx, func() {
		mu.Lock()
		if failed == nil {
			failed = g.ctx.Err()
		}
		cond.Broadcast()
		mu.Unlock()
	})
	defer stopWake()
	ev, tc, m := opts.Events, opts.Trace, opts.Metrics

	for pi, p := range paths {
		name := p.Name()
		g.go_(func(ctx context.Context) error {
			// served is the last hold horizon this worker slept out, so
			// the hold counts as over even on a clock whose Sleep does
			// not move Since.
			var served float64
			for {
				mu.Lock() //3golvet:allow locksafe — condition-variable protocol; cond.Wait needs the raw mutex
				var d Decision
				for {
					if failed != nil {
						mu.Unlock()
						return failed
					}
					d = core.Idle(pi, max(now(), served))
					if d.Probe {
						m.breakerProbed(name)
						ev.Point(tc, "scheduler.breaker_probe", "path", name)
					}
					if d.Act != ActPark {
						break
					}
					cond.Wait()
				}
				switch d.Act {
				case ActStop:
					mu.Unlock()
					return nil
				case ActBackoff, ActCooldown:
					// Held out: sleep to the horizon, waking early on
					// completion or cancellation.
					mu.Unlock()
					if trk.sleepFor(ctx, max(seconds(d.Until-now()), time.Nanosecond)) {
						served = d.Until
					} else if ctx.Err() != nil {
						return ctx.Err()
					}
					continue
				}
				tctx, cancel := context.WithCancel(ctx)
				cancels[pi] = cancel
				mu.Unlock()
				item := items[d.Item]
				m.assigned(name)
				if d.Dup {
					trk.addDuplicate(name)
					ev.Point(tc, "scheduler.duplicate",
						"item", eventlog.Int(int64(item.ID)), "path", name)
				} else {
					ev.Point(tc, "scheduler.assign",
						"item", eventlog.Int(int64(item.ID)), "path", name)
				}
				sp := ev.Begin(tc, "scheduler.attempt",
					"item", eventlog.Int(int64(item.ID)), "path", name)

				n, err, stalled := runAttempt(eventlog.NewContext(tctx, sp.Context()), p, item, trk)
				// Record whether *our replica* was cancelled before we
				// release the context (cancel() would make tctx.Err()
				// non-nil unconditionally). A stall abort cancels only
				// runAttempt's child context, so it counts as a genuine
				// failure and the item is requeued.
				replicaCancelled := tctx.Err() != nil
				cancel()

				out := AttemptFailed
				switch {
				case err == nil:
					out = AttemptOK
				case replicaCancelled && ctx.Err() == nil:
					out = AttemptCancelled
				case ctx.Err() != nil:
					sp.End("outcome", "cancelled", "bytes", eventlog.Int(n))
					trk.addBytes(name, n)
					return ctx.Err()
				case stalled:
					out = AttemptStalled
				}
				mu.Lock() //3golvet:allow locksafe — per-iteration lock in the worker loop; a defer would hold it until the worker exits
				cancels[pi] = nil
				r := core.Finish(d.Item, pi, out, now())
				switch {
				case r.Won:
					sp.End("outcome", "ok", "bytes", eventlog.Int(n))
					trk.complete(item, name, n)
					// Abort losing replicas; their partial bytes are
					// accounted when their Transfer returns.
					for _, q := range r.Cancel {
						cancels[q]()
					}
					if r.Closed {
						m.breakerClosed(name)
						ev.Point(tc, "scheduler.breaker_close", "path", name)
					}
				case out == AttemptOK || out == AttemptCancelled:
					// Lost the race, or cancelled because another
					// replica won: waste.
					outcome := "lost_race"
					if out == AttemptCancelled {
						outcome = "cancelled"
					}
					sp.End("outcome", outcome, "bytes", eventlog.Int(n))
					trk.addBytes(name, n)
					trk.addWaste(n)
				default:
					sp.End("outcome", "error", "bytes", eventlog.Int(n), "error", err.Error())
					trk.addBytes(name, n)
					if stalled {
						m.stallAborted(name)
						ev.Point(tc, "scheduler.stall",
							"item", eventlog.Int(int64(item.ID)), "path", name,
							"timeout_s", eventlog.Float(opts.StallTimeout.Seconds()))
					}
					m.retried(name)
					ev.Point(tc, "scheduler.retry",
						"item", eventlog.Int(int64(item.ID)), "path", name)
					if r.Opened {
						m.breakerOpened(name)
						ev.Point(tc, "scheduler.breaker_open",
							"path", name, "cooldown_s", eventlog.Float(r.Cooldown))
					}
					switch {
					case r.Exhausted:
						failed = &ItemError{ItemID: item.ID, ItemName: item.Name,
							PathName: name, Attempts: r.Attempts, Everywhere: true, Err: err}
						ev.Point(tc, "scheduler.exhausted",
							"item", eventlog.Int(int64(item.ID)), "path", name)
					case r.Requeued:
						m.requeued()
						ev.Point(tc, "scheduler.requeue",
							"item", eventlog.Int(int64(item.ID)), "path", name)
					}
					if r.Delay > 0 {
						// The next Idle holds the path until the horizon.
						m.backedOff(name)
						ev.Point(tc, "scheduler.backoff",
							"item", eventlog.Int(int64(item.ID)), "path", name,
							"delay_s", eventlog.Float(r.Delay))
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		})
	}
	return g.wait()
}

// errGroup is a minimal errgroup built on the stdlib (module is
// dependency-free): first error wins, wait returns it.
type errGroup struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

func newErrGroup(parent context.Context) *errGroup {
	ctx, cancel := context.WithCancel(parent)
	return &errGroup{ctx: ctx, cancel: cancel}
}

func (g *errGroup) go_(fn func(context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(g.ctx); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

func (g *errGroup) wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

package scheduler

// This file holds the resilience layer's configuration and errors and
// the live driver's real-time pieces — the answer to internal/fault's
// hostile edge. Three mechanisms, all off by default (a zero Resilience
// keeps the historical fail-politely behaviour):
//
//   - deterministic exponential backoff with seeded jitter between
//     retry attempts (BackoffConfig; the delay itself is core.go's
//     backoff);
//   - a progress watchdog that aborts an attempt when no bytes move for
//     StallTimeout and requeues the item — the only defence against
//     silent stalls, where the path neither errs nor progresses
//     (ProgressPath, runAttempt);
//   - a per-path circuit breaker: consecutive failures eject the path
//     from the greedy rotation, an escalating cooldown holds it out,
//     and the path is readmitted half-open (BreakerConfig; the state
//     machine lives in Core).
//
// Every state transition is exported through Options.Metrics and
// Options.Events so a chaos run's eventlog tells the whole story.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ProgressPath is a Path that can report byte progress mid-transfer.
// Paths that implement it come under the stall watchdog when
// Options.StallTimeout is set; opaque paths are never watchdog-aborted
// (a timeout on a path that merely cannot report progress would
// misfire).
type ProgressPath interface {
	Path
	// TransferProgress is Transfer with a progress hook: implementations
	// call progress with the cumulative bytes moved whenever the count
	// advances. The hook must be safe for concurrent use.
	TransferProgress(ctx context.Context, item Item, progress func(total int64)) (int64, error)
}

// ItemError is the typed transaction-abort error: it carries the item,
// the path that observed the final failure, and the attempt count, so
// callers and log readers can tell what died where.
type ItemError struct {
	ItemID   int
	ItemName string
	PathName string
	Attempts int
	// Everywhere is true when the greedy scheduler exhausted the retry
	// budget on every path, not just PathName (the last one to fail).
	Everywhere bool
	Err        error
}

// Error implements error.
func (e *ItemError) Error() string {
	where := fmt.Sprintf("path %s", e.PathName)
	if e.Everywhere {
		where = fmt.Sprintf("every path (last %s)", e.PathName)
	}
	return fmt.Sprintf("scheduler: item %d (%s) failed on %s after %d attempts: %v",
		e.ItemID, e.ItemName, where, e.Attempts, e.Err)
}

// Unwrap exposes the final underlying failure to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// StallError reports a progress-watchdog abort: the path moved no bytes
// for at least Timeout, so the attempt was cancelled and the item goes
// back to the queue.
type StallError struct {
	ItemID   int
	PathName string
	Timeout  time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("scheduler: item %d stalled on path %s (no progress for %v)",
		e.ItemID, e.PathName, e.Timeout)
}

// BackoffConfig tunes deterministic exponential backoff between retry
// attempts. The zero value disables backoff (instant retry).
type BackoffConfig struct {
	// Base is the delay before the first retry; 0 disables backoff.
	Base time.Duration
	// Max caps the exponential growth; 0 selects 32×Base.
	Max time.Duration
	// Jitter widens each delay by a uniform random fraction: the k-th
	// delay is min(Max, Base·2^k)·(1 + Jitter·U), U ∈ [0, 1) drawn from
	// the seeded stream. 0 means no jitter.
	Jitter float64
	// Seed seeds the jitter stream — no global rand, so a transaction
	// replayed with the same seed draws the same jitter sequence.
	Seed int64
}

// BreakerConfig tunes the per-path circuit breaker. The zero value
// disables it. The breaker applies to the greedy policies (GRD and
// PLAYOUT) only: fixed-queue policies cannot reassign around an ejected
// path, so ejection would only add latency there.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// and ejects the path from the rotation; 0 disables the breaker.
	Threshold int
	// Cooldown is how long the first opening holds the path out before
	// it is readmitted half-open; 0 selects 500ms. Every re-opening doubles
	// the hold, up to MaxCooldown.
	Cooldown time.Duration
	// MaxCooldown caps the doubling; 0 selects 8×Cooldown.
	MaxCooldown time.Duration
}

// sleepFor sleeps d on the transaction clock in small slices, waking
// early when ctx dies or the transaction completes. It reports whether
// the full duration elapsed.
func (t *tracker) sleepFor(ctx context.Context, d time.Duration) bool {
	const slice = 5 * time.Millisecond
	for d > 0 {
		if ctx.Err() != nil {
			return false
		}
		select {
		case <-t.doneCh:
			return false
		default:
		}
		step := d
		if step > slice {
			step = slice
		}
		t.clk.Sleep(step)
		d -= step
	}
	return ctx.Err() == nil
}

// runAttempt performs one transfer attempt, guarding it with the
// progress watchdog when StallTimeout is set and the path reports
// progress. stalled is true when the watchdog cancelled the attempt (in
// which case err is a *StallError and the parent ctx is still alive).
func runAttempt(ctx context.Context, p Path, it Item, trk *tracker) (n int64, err error, stalled bool) {
	pp, watched := p.(ProgressPath)
	st := trk.opts.StallTimeout
	if st <= 0 || !watched {
		n, err = p.Transfer(ctx, it)
		return n, err, false
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu         sync.Mutex
		lastTotal  int64 = -1 // -1 ≠ 0: a silent connect stall must trip too
		lastChange       = trk.clk.Now()
		tripped    bool
	)
	done := make(chan struct{})
	go func() {
		// The watchdog polls at a quarter of the stall timeout; it
		// cancels only the attempt's child context, so the scheduler's
		// replica-cancellation detection (tctx.Err()) stays false and a
		// stall abort flows into the requeue branch.
		slice := st / 4
		if slice <= 0 {
			slice = time.Millisecond
		}
		for {
			trk.clk.Sleep(slice)
			select {
			case <-done:
				return
			default:
			}
			mu.Lock() //3golvet:allow locksafe — two-line idle read inside the poll loop; defer would pin it per-iteration
			idle := trk.clk.Since(lastChange)
			mu.Unlock()
			if idle >= st {
				mu.Lock() //3golvet:allow locksafe — sets the trip flag before cancel(); defer would hold it across cancel
				tripped = true
				mu.Unlock()
				cancel()
				return
			}
		}
	}()
	n, err = pp.TransferProgress(wctx, it, func(total int64) {
		mu.Lock()
		if total != lastTotal {
			lastTotal = total
			lastChange = trk.clk.Now()
		}
		mu.Unlock()
	})
	close(done)
	mu.Lock() //3golvet:allow locksafe — two-line read of the trip flag; deferring would hold it across return
	s := tripped
	mu.Unlock()
	if s && err != nil && ctx.Err() == nil {
		return n, &StallError{ItemID: it.ID, PathName: p.Name(), Timeout: st}, true
	}
	return n, err, false
}

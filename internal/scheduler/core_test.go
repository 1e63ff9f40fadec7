package scheduler

import (
	"reflect"
	"testing"
	"time"
)

// coreStep is one event fed to a Core and the answer expected back:
// Idle when idle is set, Finish otherwise.
type coreStep struct {
	idle bool
	p    int
	t    float64
	item int
	out  Outcome
	want Decision
	res  Result
}

func idleAt(p int, t float64, want Decision) coreStep {
	return coreStep{idle: true, p: p, t: t, want: want}
}

func finishAt(item, p int, out Outcome, t float64, res Result) coreStep {
	return coreStep{p: p, t: t, item: item, out: out, res: res}
}

func start(item int) Decision { return Decision{Act: ActStart, Item: item} }
func dup(item int) Decision   { return Decision{Act: ActStart, Item: item, Dup: true} }

var park = Decision{Act: ActPark, Item: -1}

// runCore feeds steps to c and checks every answer.
func runCore(t *testing.T, c *Core, steps []coreStep) {
	t.Helper()
	for i, st := range steps {
		if st.idle {
			if got := c.Idle(st.p, st.t); got != st.want {
				t.Fatalf("step %d: Idle(%d, %v) = %+v, want %+v", i, st.p, st.t, got, st.want)
			}
			continue
		}
		got := c.Finish(st.item, st.p, st.out, st.t)
		if len(got.Cancel) == 0 {
			got.Cancel = nil
		}
		if !reflect.DeepEqual(got, st.res) {
			t.Fatalf("step %d: Finish(%d, %d, %d, %v) = %+v, want %+v", i, st.item, st.p, st.out, st.t, got, st.res)
		}
	}
}

// TestCore drives the greedy decision core directly on float time.
func TestCore(t *testing.T) {
	for _, tc := range []struct {
		name         string
		algo         Algo
		items, paths int
		res          Resilience
		steps        []coreStep
	}{
		{
			// A failure requeues its item only when no other replica
			// still carries it.
			name: "requeue_only_without_replica", items: 1, paths: 2,
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, dup(0)),
				finishAt(0, 0, AttemptFailed, 1, Result{}),
				idleAt(0, 1, dup(0)),
				finishAt(0, 1, AttemptStalled, 2, Result{}),
				finishAt(0, 0, AttemptFailed, 2, Result{Requeued: true}),
				idleAt(0, 2, start(0)),
				finishAt(0, 0, AttemptOK, 3, Result{Won: true, Done: true}),
				idleAt(1, 3, Decision{Act: ActStop}),
			},
		},
		{
			// Spending one path's budget moves the item to the other
			// path; only the last budget ends the transaction.
			name: "exhausted_only_when_every_budget_spent", items: 1, paths: 2,
			res: Resilience{MaxRetries: 1, DisableDuplication: true},
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, park),
				finishAt(0, 0, AttemptFailed, 0, Result{Requeued: true}),
				idleAt(0, 0, park),
				idleAt(1, 0, start(0)),
				finishAt(0, 1, AttemptFailed, 1, Result{Exhausted: true, Attempts: 2}),
				idleAt(0, 1, Decision{Act: ActStop}),
			},
		},
		{
			// GRD duplicates the item with the fewest replicas, the
			// oldest assignment breaking ties.
			name: "grd_fewest_replicas_then_oldest", items: 2, paths: 4,
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, start(1)),
				idleAt(2, 0, dup(0)),
				idleAt(3, 0, dup(1)),
				finishAt(1, 3, AttemptOK, 1, Result{Won: true, Cancel: []int{1}}),
				idleAt(3, 1, dup(0)),
			},
		},
		{
			// Item 0 is requeued, so its new assignment is younger than
			// item 1's: GRD duplicates item 1 ...
			name: "grd_oldest_after_requeue", items: 2, paths: 3,
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, start(1)),
				finishAt(0, 0, AttemptFailed, 0, Result{Requeued: true}),
				idleAt(0, 0, start(0)),
				idleAt(2, 0, dup(1)),
			},
		},
		{
			// ... while PLAYOUT duplicates the head-of-line item 0.
			name: "playout_head_of_line", algo: Playout, items: 2, paths: 3,
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, start(1)),
				finishAt(0, 0, AttemptFailed, 0, Result{Requeued: true}),
				idleAt(0, 0, start(0)),
				idleAt(2, 0, dup(0)),
			},
		},
		{
			// No duplicate of an item the idle path has no budget for.
			name: "duplicate_respects_budget", items: 1, paths: 2,
			res: Resilience{MaxRetries: 1},
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, dup(0)),
				finishAt(0, 0, AttemptFailed, 0, Result{}),
				idleAt(0, 0, park),
			},
		},
		{
			// A failure holds the path until the backoff horizon; the
			// delay doubles with the streak up to Max.
			name: "backoff_holds_path", items: 3, paths: 1,
			res: Resilience{MaxRetries: 5, Backoff: BackoffConfig{Base: time.Second, Max: 2 * time.Second}},
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				finishAt(0, 0, AttemptFailed, 0, Result{Requeued: true, Delay: 1}),
				idleAt(0, 0.5, Decision{Act: ActBackoff, Until: 1}),
				idleAt(0, 1, start(1)),
				finishAt(1, 0, AttemptFailed, 1, Result{Requeued: true, Delay: 2}),
				idleAt(0, 3, start(2)),
				finishAt(2, 0, AttemptFailed, 3, Result{Requeued: true, Delay: 2}),
				idleAt(0, 5, start(0)),
				finishAt(0, 0, AttemptOK, 5, Result{Won: true}),
				idleAt(0, 5, start(1)),
				finishAt(1, 0, AttemptFailed, 5, Result{Requeued: true, Delay: 1}),
			},
		},
		{
			// A replica that wins no race leaves the path's backoff
			// streak and breaker as they were, and a failure on an item
			// already delivered still counts against both.
			name: "lost_race_and_late_failure", items: 2, paths: 2,
			res: Resilience{Backoff: BackoffConfig{Base: time.Second}, Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second}},
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, start(1)),
				finishAt(1, 1, AttemptFailed, 0, Result{Requeued: true, Delay: 1}),
				idleAt(1, 1, start(1)),
				finishAt(0, 0, AttemptOK, 2, Result{Won: true}),
				idleAt(0, 2, dup(1)),
				finishAt(1, 0, AttemptOK, 3, Result{Won: true, Done: true, Cancel: []int{1}}),
				finishAt(1, 1, AttemptOK, 3, Result{}),
				finishAt(1, 1, AttemptFailed, 3, Result{Opened: true, Cooldown: 1, Delay: 2}),
			},
		},
		{
			// A cancelled replica changes nothing but its own slot.
			name: "cancelled_is_neutral", items: 1, paths: 2,
			res: Resilience{Breaker: BreakerConfig{Threshold: 1}},
			steps: []coreStep{
				idleAt(0, 0, start(0)),
				idleAt(1, 0, dup(0)),
				finishAt(0, 0, AttemptCancelled, 1, Result{}),
				idleAt(0, 1, dup(0)),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runCore(t, NewCore(tc.algo, tc.items, tc.paths, tc.res), tc.steps)
		})
	}
}

// TestBreakerStateMachine walks one path's breaker through open,
// half-open and closed, with the doubling cooldown capped at
// MaxCooldown and reset by a success.
func TestBreakerStateMachine(t *testing.T) {
	c := NewCore(Greedy, 2, 1, Resilience{MaxRetries: 100,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second, MaxCooldown: 3 * time.Second}})
	fail := func(item int, t0 float64, res Result) []coreStep {
		res.Requeued = true
		return []coreStep{idleAt(0, t0, start(item)), finishAt(item, 0, AttemptFailed, t0, res)}
	}
	var steps []coreStep
	// One failure under the threshold keeps the path in rotation; the
	// second opens the breaker for the first cooldown. A failed item
	// goes to the back of the queue, so the path alternates items.
	steps = append(steps, fail(0, 0, Result{})...)
	steps = append(steps, fail(1, 0, Result{Opened: true, Cooldown: 1})...)
	steps = append(steps, idleAt(0, 0.5, Decision{Act: ActCooldown, Until: 1}))
	// The expired cooldown readmits the path half-open; a failure there
	// re-opens at once with the doubled hold.
	steps = append(steps,
		idleAt(0, 1, Decision{Act: ActStart, Item: 0, Probe: true}),
		finishAt(0, 0, AttemptFailed, 1, Result{Requeued: true, Opened: true, Cooldown: 2}),
		idleAt(0, 2.5, Decision{Act: ActCooldown, Until: 3}))
	// A half-open win closes the breaker ...
	steps = append(steps,
		idleAt(0, 3, Decision{Act: ActStart, Item: 1, Probe: true}),
		finishAt(1, 0, AttemptOK, 3, Result{Won: true, Closed: true}))
	// ... the closed path takes work again with no probe, and the next
	// opening takes Threshold fresh failures and holds for the base
	// cooldown, not the escalated one.
	steps = append(steps, fail(0, 3, Result{})...)
	steps = append(steps, fail(0, 3, Result{Opened: true, Cooldown: 1})...)
	steps = append(steps,
		idleAt(0, 3.5, Decision{Act: ActCooldown, Until: 4}),
		idleAt(0, 4, Decision{Act: ActStart, Item: 0, Probe: true}),
		finishAt(0, 0, AttemptOK, 4, Result{Won: true, Done: true, Closed: true}))
	runCore(t, c, steps)

	c = NewCore(Greedy, 1, 1, Resilience{MaxRetries: 100,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Second, MaxCooldown: 3 * time.Second}})
	steps = append(fail(0, 0, Result{}), fail(0, 0, Result{Opened: true, Cooldown: 1})...)
	// Escalation doubles per re-opening and caps at MaxCooldown.
	now := 0.0
	for _, hold := range []float64{2, 3, 3} {
		now += 10
		steps = append(steps,
			idleAt(0, now, Decision{Act: ActStart, Probe: true}),
			finishAt(0, 0, AttemptFailed, now, Result{Requeued: true, Opened: true, Cooldown: hold}))
	}
	runCore(t, c, steps)

	// A zero Threshold disables the breaker.
	c = NewCore(Greedy, 1, 1, Resilience{MaxRetries: 100})
	for i := 0; i < 5; i++ {
		runCore(t, c, fail(0, 0, Result{}))
	}
}

func TestBackoffDelayDeterministic(t *testing.T) {
	cfg := BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.5, Seed: 7}
	a, b := newBackoff(cfg), newBackoff(cfg)
	for k := 0; k < 8; k++ {
		da, db := a.delay(k), b.delay(k)
		if da != db {
			t.Fatalf("delay(%d): %v vs %v — same seed must draw the same jitter", k, da, db)
		}
		// Bounds: min(Max, Base·2^k) ≤ d < that·(1+Jitter).
		base := (cfg.Base << k).Seconds()
		if m := cfg.Max.Seconds(); base > m {
			base = m
		}
		if da < base || da >= base*(1+cfg.Jitter) {
			t.Fatalf("delay(%d) = %v outside [%v, %v)", k, da, base, base*(1+cfg.Jitter))
		}
	}
	// A different seed draws a different stream.
	c := newBackoff(BackoffConfig{Base: cfg.Base, Max: cfg.Max, Jitter: cfg.Jitter, Seed: 8})
	if a = newBackoff(cfg); a.delay(0) == c.delay(0) {
		t.Fatal("seeds 7 and 8 drew the same jitter")
	}
	// Max defaults to 32×Base.
	if a = newBackoff(BackoffConfig{Base: time.Second}); a.delay(10) != 32 {
		t.Fatal("uncapped delay(10) is not 32×Base")
	}
	// Zero Base disables backoff entirely.
	if a = newBackoff(BackoffConfig{}); a.delay(3) != 0 {
		t.Fatal("disabled backoff returned a delay")
	}
}

package scheduler

// The greedy decision core: every policy rule of GRD and PLAYOUT and
// their resilience stack, with no goroutines, no clock and no
// instrumentation. Drivers feed it two kinds of event — "path p is idle
// at t" (Idle) and "the attempt of item i on path p ended at t with
// this outcome" (Finish) — and act on what it answers. Time is float64
// seconds since the transaction began, on whatever timeline the driver
// keeps: runGreedy reads its Clock, fault.Simulate its event heap.
// Because both drivers run this one copy of the policy, what the fleet
// chaos harness proves about the virtual-time driver holds for the
// live one.

import (
	"math"
	"math/rand"
	"time"
)

// Resilience configures the greedy core's failure handling. The zero
// value keeps the historical fail-politely behaviour: three tries per
// (item, path), endgame duplication on, instant retry, no watchdog, no
// breaker.
type Resilience struct {
	// MaxRetries is the per-(item, path) attempt budget: a path stops
	// taking an item once it has failed it this many times, and the
	// transaction aborts when every path has. RR and MIN retry on the
	// item's one path this many times. Zero selects 3.
	MaxRetries int
	// DisableDuplication turns off GRD's endgame re-assignment (the
	// ablation knob for the paper's duplication design choice).
	DisableDuplication bool
	// Backoff configures deterministic exponential backoff with seeded
	// jitter between retry attempts. The zero value disables backoff
	// (instant retry).
	Backoff BackoffConfig
	// StallTimeout aborts a transfer attempt when the path reports no
	// byte progress for this long, and requeues the item. Only paths
	// implementing ProgressPath are watched; zero disables the
	// watchdog.
	StallTimeout time.Duration
	// Breaker configures the per-path circuit breaker (GRD/PLAYOUT
	// only). The zero value disables it.
	Breaker BreakerConfig
}

func (r Resilience) maxRetries() int {
	if r.MaxRetries <= 0 {
		return 3
	}
	return r.MaxRetries
}

// Act is what the core tells an idle path to do.
type Act uint8

// Core actions.
const (
	// ActStart starts Decision.Item on the path: fresh work, or an
	// endgame replica when Decision.Dup is set.
	ActStart Act = iota
	// ActBackoff holds the path until Decision.Until: it is backing off
	// after a failure (Result.Delay). The failure already told the
	// driver when the hold ends.
	ActBackoff
	// ActCooldown holds the path until Decision.Until: its breaker is
	// open.
	ActCooldown
	// ActPark leaves the path idle until another attempt finishes.
	ActPark
	// ActStop ends the path's work: every item is delivered, or one
	// exhausted its budget on every path.
	ActStop
)

// Decision is the core's answer to Idle.
type Decision struct {
	Act   Act
	Item  int
	Dup   bool
	Until float64
	// Probe reports that this call moved the path's breaker from open
	// to half-open after its cooldown.
	Probe bool
}

// Outcome classifies how an attempt ended.
type Outcome uint8

// Attempt outcomes.
const (
	// AttemptOK: the attempt moved the whole item.
	AttemptOK Outcome = iota
	// AttemptCancelled: the driver cancelled the replica because
	// another one won (Result.Cancel).
	AttemptCancelled
	// AttemptFailed: a genuine transfer failure.
	AttemptFailed
	// AttemptStalled: the stall watchdog aborted the attempt; the core
	// treats it as a failure.
	AttemptStalled
)

// Result is the core's answer to Finish.
type Result struct {
	// Won is set when an AttemptOK delivered the item first; an
	// AttemptOK without Won lost the race to another replica.
	Won bool
	// Cancel lists the paths still carrying replicas of a won item; the
	// driver cancels them. It aliases core memory and is valid until
	// the next call.
	Cancel []int
	// Done is set when the won item was the last one.
	Done bool
	// Requeued: the failed item went back on the pending queue because
	// no other replica carries it.
	Requeued bool
	// Exhausted: every path spent its budget on the item; the
	// transaction has failed after Attempts attempts.
	Exhausted bool
	Attempts  int
	// Opened: the failure opened the path's breaker for Cooldown
	// seconds. Closed: the win closed a half-open breaker.
	Opened, Closed bool
	Cooldown       float64
	// Delay is the backoff, in seconds, before the failed path's next
	// attempt.
	Delay float64
}

// Breaker states: closed (healthy) → open (ejected, cooling down) →
// half-open (attempts admitted again) → closed on the first win, or
// back to open (escalated cooldown) on the first failure.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// coreItem is one item's scheduling state; an item is in flight while
// active.
type coreItem struct {
	done     bool
	active   bool
	seq      int // assignment order, for "oldest" duplicate choice
	replicas int // attempts of the item now running
}

// corePath is one path's resilience state.
type corePath struct {
	earliest float64 // backoff horizon
	streak   int     // consecutive failures, the backoff exponent
	brState  int
	brConsec int     // consecutive failures while closed
	brUntil  float64 // open: when the half-open probe unlocks
	brHold   float64 // cooldown applied at the next opening
}

// Core is the single-threaded greedy scheduler for one transaction.
// Callers serialise access. Idle must only be asked about a path with
// no attempt running.
type Core struct {
	playout  bool
	n        int // paths
	maxTries int
	noDup    bool
	bo       backoff
	brThresh int
	brCool   float64
	brMax    float64

	pending []int
	items   []coreItem
	on      []bool // [item*n+path]: path runs a replica of item
	fails   []int  // [item*n+path]: failed attempts
	paths   []corePath
	left    int
	failed  bool
	seq     int
	cancel  []int
}

// NewCore returns the core for a transaction of items items over paths
// paths under algo (Playout duplicates head-of-line; anything else is
// GRD's oldest-first rule).
func NewCore(algo Algo, items, paths int, r Resilience) *Core {
	c := &Core{
		playout:  algo == Playout,
		n:        paths,
		maxTries: r.maxRetries(),
		noDup:    r.DisableDuplication,
		bo:       newBackoff(r.Backoff),
		brThresh: r.Breaker.Threshold,
		brCool:   r.Breaker.Cooldown.Seconds(),
		brMax:    r.Breaker.MaxCooldown.Seconds(),
		pending:  make([]int, items),
		items:    make([]coreItem, items),
		on:       make([]bool, items*paths),
		fails:    make([]int, items*paths),
		paths:    make([]corePath, paths),
		left:     items,
		cancel:   make([]int, 0, paths),
	}
	if c.brCool <= 0 {
		c.brCool = 0.5
	}
	if c.brMax <= 0 {
		c.brMax = 8 * c.brCool
	}
	for i := range c.pending {
		c.pending[i] = i
	}
	for p := range c.paths {
		c.paths[p].brHold = c.brCool
	}
	return c
}

// Idle decides what path p does at time t.
func (c *Core) Idle(p int, t float64) Decision {
	if c.left == 0 || c.failed {
		return Decision{Act: ActStop}
	}
	ps := &c.paths[p]
	if t < ps.earliest {
		return Decision{Act: ActBackoff, Until: ps.earliest}
	}
	var d Decision
	if c.brThresh > 0 && ps.brState == breakerOpen {
		if t < ps.brUntil {
			return Decision{Act: ActCooldown, Until: ps.brUntil}
		}
		ps.brState = breakerHalfOpen
		d.Probe = true
	}
	if i := c.takeable(p); i >= 0 {
		d.Item = c.pending[i]
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.items[d.Item] = coreItem{active: true, seq: c.seq}
		c.seq++
	} else if d.Item = c.duplicate(p); d.Item >= 0 {
		d.Dup = true
	} else {
		d.Act = ActPark
		return d
	}
	c.items[d.Item].replicas++
	c.on[d.Item*c.n+p] = true
	return d
}

// takeable returns the index of the first pending item path p still
// has budget for, or -1.
func (c *Core) takeable(p int) int {
	for i, it := range c.pending {
		if c.fails[it*c.n+p] < c.maxTries {
			return i
		}
	}
	return -1
}

// duplicate picks the in-flight item path p should replicate, or -1:
// GRD takes the item with the fewest replicas, oldest assignment
// first; PLAYOUT takes the lowest ID, the item in-order playout is
// blocked on.
func (c *Core) duplicate(p int) int {
	if c.noDup {
		return -1
	}
	best := -1
	for i := range c.items {
		it := &c.items[i]
		if !it.active || c.fails[i*c.n+p] >= c.maxTries {
			continue
		}
		if best >= 0 {
			b := &c.items[best]
			if c.playout || it.replicas > b.replicas || (it.replicas == b.replicas && it.seq > b.seq) {
				continue
			}
		}
		best = i
	}
	return best
}

// Finish settles the attempt of item on path p that ended at t.
func (c *Core) Finish(item, p int, out Outcome, t float64) Result {
	var r Result
	it := &c.items[item]
	if k := item*c.n + p; c.on[k] {
		c.on[k] = false
		it.replicas--
	}
	switch out {
	case AttemptCancelled:
		return r
	case AttemptOK:
		if it.done {
			// Lost the race: no streak reset, no breaker change.
			return r
		}
		r.Won = true
		it.done, it.active = true, false
		c.left--
		r.Done = c.left == 0
		c.paths[p].streak = 0
		r.Closed = c.breakerSuccess(p)
		c.cancel = c.cancel[:0]
		for q := 0; q < c.n; q++ {
			if k := item*c.n + q; c.on[k] {
				c.on[k] = false
				c.cancel = append(c.cancel, q)
			}
		}
		it.replicas = 0
		r.Cancel = c.cancel
		return r
	}
	// A genuine failure counts against the (item, path) budget, the
	// breaker and the backoff streak even when the item is done.
	ps := &c.paths[p]
	c.fails[item*c.n+p]++
	r.Opened, r.Cooldown = c.breakerFailure(p, t)
	r.Delay = c.bo.delay(ps.streak)
	ps.streak++
	if !it.done {
		if r.Attempts = c.exhausted(item); r.Attempts > 0 {
			r.Exhausted = true
			c.failed = true
			return r
		}
		if it.active && it.replicas == 0 {
			it.active = false
			c.pending = append(c.pending, item)
			r.Requeued = true
		}
	}
	ps.earliest = t + r.Delay
	return r
}

// exhausted returns the item's total failed attempts when every path
// has spent its budget on it, else 0.
func (c *Core) exhausted(item int) int {
	total := 0
	for _, f := range c.fails[item*c.n : item*c.n+c.n] {
		if f < c.maxTries {
			return 0
		}
		total += f
	}
	return total
}

// breakerSuccess re-closes p's breaker, resetting its streak and
// cooldown escalation; it reports whether a half-open breaker closed.
func (c *Core) breakerSuccess(p int) bool {
	if c.brThresh <= 0 {
		return false
	}
	ps := &c.paths[p]
	closed := ps.brState == breakerHalfOpen
	ps.brState, ps.brConsec, ps.brHold = breakerClosed, 0, c.brCool
	return closed
}

// breakerFailure advances p's breaker on a failure: a half-open breaker
// re-opens at once, a closed one opens at the threshold. It returns
// whether the breaker opened and for how long.
func (c *Core) breakerFailure(p int, t float64) (bool, float64) {
	if c.brThresh <= 0 {
		return false, 0
	}
	ps := &c.paths[p]
	switch ps.brState {
	case breakerClosed:
		if ps.brConsec++; ps.brConsec < c.brThresh {
			return false, 0
		}
	case breakerOpen:
		return false, 0
	}
	hold := ps.brHold
	ps.brState, ps.brConsec, ps.brUntil = breakerOpen, 0, t+hold
	ps.brHold = math.Min(hold*2, c.brMax)
	return true, hold
}

// backoff is the seeded exponential retry delay shared by the core and
// the fixed-queue policies.
type backoff struct {
	base, max, jitter float64
	rng               *rand.Rand // nil without jitter
}

func newBackoff(cfg BackoffConfig) backoff {
	b := backoff{base: cfg.Base.Seconds(), max: cfg.Max.Seconds(), jitter: cfg.Jitter}
	if b.max <= 0 {
		b.max = 32 * b.base
	}
	if b.base > 0 && b.jitter > 0 {
		b.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return b
}

// delay returns the backoff in seconds before retry k (0-based):
// min(max, base·2^k)·(1 + jitter·U), U drawn from the seeded stream; 0
// when backoff is disabled.
func (b *backoff) delay(k int) float64 {
	if b.base <= 0 {
		return 0
	}
	d := b.base
	for i := 0; i < k && d < b.max; i++ {
		d *= 2
	}
	d = math.Min(d, b.max)
	if b.rng != nil {
		d += b.jitter * b.rng.Float64() * d
	}
	return d
}

package fault

// Virtual-time chaos simulation. The live scheduler (internal/scheduler)
// is real-time and goroutine-concurrent, so its outputs are not
// bit-stable across runs — fine for the prototype path, fatal for the
// fleet engine's byte-identical-across-worker-counts contract. Simulate
// is the bridge: a single-threaded discrete-event driver of the
// scheduler's own greedy decision core (scheduler.Core). The core takes
// every policy decision — retry budgets, requeue, endgame duplication,
// seeded backoff, the circuit breaker — exactly as it does under the
// live driver; this file adds only the physics (each attempt walked
// against the fault Plan on the same float64-seconds timeline the live
// decorators use, the stall watchdog included) and the accounting. No
// wall clock, no global rand, no goroutines: same config in, same
// report out, bit for bit.

import (
	"container/heap"
	"fmt"
	"math"

	"threegol/internal/scheduler"
)

// SimPath describes one path in a chaos simulation.
type SimPath struct {
	Name string
	// Rate is the path's throughput in bytes per second of clean air
	// (time outside every fault window).
	Rate float64
}

// SimConfig drives Simulate. All times are virtual seconds on the
// plan's timeline.
type SimConfig struct {
	Paths []SimPath
	Items []int64 // item sizes in bytes
	Plan  *Plan
	// Resilience is the scheduler's failure-handling configuration,
	// applied as the live scheduler applies it. Durations convert to
	// virtual seconds; a StallTimeout aborts an attempt that a stall
	// window holds silent that long (0: the attempt waits the stall
	// out).
	scheduler.Resilience
}

// SimPathStats aggregates one path's activity in a SimReport.
type SimPathStats struct {
	Items        int   `json:"items"`
	Bytes        int64 `json:"bytes"`
	Failures     int   `json:"failures"`
	Stalls       int   `json:"stalls"`
	BreakerOpens int   `json:"breaker_opens"`
}

// SimReport is the outcome of one simulated chaos transaction.
type SimReport struct {
	// Completed counts items delivered; Delivered[i] counts item i's
	// winning completions (exactly-once delivery ⇔ every entry is 1).
	Completed int   `json:"completed"`
	Delivered []int `json:"delivered"`
	// Elapsed is the virtual time at which the transaction resolved.
	Elapsed float64 `json:"elapsed_s"`
	// DuplicateWaste counts bytes moved by replicas cancelled after
	// losing the endgame race, cumulative over the whole transaction.
	DuplicateWaste int64 `json:"duplicate_waste_bytes"`
	// MaxCompletionWaste is the largest loser waste charged to any one
	// item's completion — the quantity §4.1.1 bounds by (N−1)·Sm: at
	// the instant an item completes, at most N−1 paths carried a losing
	// replica, each ≤ Sm bytes in. (The cumulative DuplicateWaste can
	// exceed that bound whenever requeues open a second endgame.)
	MaxCompletionWaste int64 `json:"max_completion_waste_bytes"`
	// FailureWaste counts bytes abandoned by failed or stall-aborted
	// attempts (unbounded in principle: the price of a hostile edge).
	FailureWaste int64                   `json:"failure_waste_bytes"`
	Requeues     int                     `json:"requeues"`
	Duplicates   int                     `json:"duplicates"`
	StallAborts  int                     `json:"stall_aborts"`
	BreakerOpens int                     `json:"breaker_opens"`
	PerPath      map[string]SimPathStats `json:"per_path"`
	// Failed is non-empty when some item exhausted its budget on every
	// path and the transaction aborted.
	Failed string `json:"failed,omitempty"`
}

// attempt outcomes inside the simulation.
const (
	attemptOK = iota
	attemptKilled
	attemptStalled
)

// walkAttempt plays one transfer attempt against the plan: from t0,
// bytes flow at rate through clean air, freeze through stall windows
// (aborting at t+StallTimeout when the watchdog is armed and the freeze
// outlasts it), and die at the opening edge of a blackout/depart/reset
// window.
func walkAttempt(plan *Plan, target string, rate float64, size int64, t0, stallTimeout float64) (end float64, bytes int64, out int) {
	t := t0
	var moved float64
	for {
		if _, ok := plan.ActiveAt(target, t, Blackout, Depart, Reset); ok {
			return t, int64(moved), attemptKilled
		}
		if w, ok := plan.ActiveAt(target, t, Stall); ok {
			if stallTimeout > 0 && w.End-t >= stallTimeout {
				return t + stallTimeout, int64(moved), attemptStalled
			}
			t = w.End
			continue
		}
		next := plan.NextDisruption(target, t)
		finish := t + (float64(size)-moved)/rate
		if finish <= next {
			return finish, size, attemptOK
		}
		moved += rate * (next - t)
		t = next
	}
}

// cleanBytes reports how many bytes an attempt started at t0 had moved
// by tc (a cancellation instant strictly before its natural end).
func cleanBytes(plan *Plan, target string, rate float64, size int64, t0, tc float64) int64 {
	t := t0
	var moved float64
	for t < tc {
		if _, ok := plan.ActiveAt(target, t, Blackout, Depart, Reset); ok {
			break
		}
		if w, ok := plan.ActiveAt(target, t, Stall); ok {
			t = math.Min(w.End, tc)
			continue
		}
		next := math.Min(plan.NextDisruption(target, t), tc)
		span := next - t
		if need := (float64(size) - moved) / rate; need <= span {
			moved = float64(size)
			break
		}
		moved += rate * span
		t = next
	}
	return int64(moved)
}

// ----- event queue -----

const (
	evIdle = iota
	evResolve
)

type simEvent struct {
	t    float64
	seq  int // FIFO tie-break: identical times pop in push order
	kind int
	path int
	gen  int // evResolve: the attempt's generation; stale once cancelled
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simAttempt is the attempt a path is running.
type simAttempt struct {
	gen   int // 0: none running
	item  int
	start float64
	bytes int64 // bytes at natural resolution
	out   int
}

type simState struct {
	cfg   SimConfig
	plan  *Plan
	stall float64
	core  *scheduler.Core
	rep   *SimReport

	events eventHeap
	evSeq  int

	att []simAttempt // per path
	gen int

	// lossByItem accumulates each item's completion-time loser waste
	// (winner-cancelled replicas plus simultaneous-finish ties); its
	// maximum is the §4.1.1-bounded MaxCompletionWaste.
	lossByItem []int64

	done    bool
	elapsed float64
}

// Simulate runs one chaos transaction to completion (or abort) in
// virtual time and returns its report.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("fault: simulate needs at least one path")
	}
	for _, p := range cfg.Paths {
		if p.Rate <= 0 {
			return nil, fmt.Errorf("fault: path %q has non-positive rate", p.Name)
		}
	}
	n := len(cfg.Paths)
	s := &simState{
		cfg:   cfg,
		plan:  cfg.Plan,
		stall: cfg.StallTimeout.Seconds(),
		core:  scheduler.NewCore(scheduler.Greedy, len(cfg.Items), n, cfg.Resilience),
		rep: &SimReport{
			Delivered: make([]int, len(cfg.Items)),
			PerPath:   make(map[string]SimPathStats, n),
		},
		att:        make([]simAttempt, n),
		lossByItem: make([]int64, len(cfg.Items)),
	}
	for p := range cfg.Paths {
		s.rep.PerPath[cfg.Paths[p].Name] = SimPathStats{}
		s.push(simEvent{t: 0, kind: evIdle, path: p})
	}
	if len(cfg.Items) == 0 {
		return s.rep, nil
	}

	for s.events.Len() > 0 && !s.done && s.rep.Failed == "" {
		e := heap.Pop(&s.events).(simEvent)
		switch e.kind {
		case evIdle:
			s.dispatch(e.path, e.t)
		case evResolve:
			if e.gen == s.att[e.path].gen {
				s.resolve(e.path, e.t)
			}
		}
	}
	if !s.done && s.rep.Failed == "" {
		// Every path parked with work still undone: cannot happen while
		// budgets remain (the exhaustion check fires first), so treat it
		// as a simulator invariant violation rather than mis-reporting.
		return nil, fmt.Errorf("fault: simulation deadlocked with %d/%d items done",
			s.rep.Completed, len(cfg.Items))
	}
	s.rep.Elapsed = s.elapsed
	for _, w := range s.lossByItem {
		if w > s.rep.MaxCompletionWaste {
			s.rep.MaxCompletionWaste = w
		}
	}
	return s.rep, nil
}

func (s *simState) push(e simEvent) {
	e.seq = s.evSeq
	s.evSeq++
	heap.Push(&s.events, e)
}

// busy reports whether path p is running an attempt.
func (s *simState) busy(p int) bool { return s.att[p].gen != 0 }

// wakeAll re-dispatches every idle path at time t — the simulation's
// cond.Broadcast.
func (s *simState) wakeAll(t float64) {
	for p := range s.cfg.Paths {
		if !s.busy(p) {
			s.push(simEvent{t: t, kind: evIdle, path: p})
		}
	}
}

// dispatch asks the core what idle path p does at time t.
func (s *simState) dispatch(p int, t float64) {
	if s.done || s.rep.Failed != "" || s.busy(p) {
		return
	}
	d := s.core.Idle(p, t)
	switch d.Act {
	case scheduler.ActCooldown:
		s.push(simEvent{t: d.Until, kind: evIdle, path: p})
		return
	case scheduler.ActStart:
	default:
		// Backing off (the failure queued a wake at the horizon), or
		// parked until state changes.
		return
	}
	if d.Dup {
		s.rep.Duplicates++
	}
	sp := s.cfg.Paths[p]
	end, bytes, out := walkAttempt(s.plan, sp.Name, sp.Rate, s.cfg.Items[d.Item], t, s.stall)
	s.gen++
	s.att[p] = simAttempt{gen: s.gen, item: d.Item, start: t, bytes: bytes, out: out}
	s.push(simEvent{t: end, kind: evResolve, path: p, gen: s.gen})
	// A fresh in-flight item is a new endgame candidate for parked
	// paths.
	s.wakeAll(t)
}

// resolve settles path p's attempt at its natural end time t.
func (s *simState) resolve(p int, t float64) {
	att := s.att[p]
	s.att[p] = simAttempt{}
	name := s.cfg.Paths[p].Name
	st := s.rep.PerPath[name]
	st.Bytes += att.bytes

	if att.out == attemptOK {
		r := s.core.Finish(att.item, p, scheduler.AttemptOK, t)
		if r.Won {
			s.rep.Delivered[att.item]++
			s.rep.Completed++
			st.Items++
			// Cancel the losing replicas: account their partial bytes
			// as duplicate waste and free their paths now.
			for _, rp := range r.Cancel {
				rsp := s.cfg.Paths[rp]
				rb := cleanBytes(s.plan, rsp.Name, rsp.Rate, s.cfg.Items[att.item], s.att[rp].start, t)
				s.att[rp] = simAttempt{}
				rst := s.rep.PerPath[rsp.Name]
				rst.Bytes += rb
				s.rep.PerPath[rsp.Name] = rst
				s.rep.DuplicateWaste += rb
				s.lossByItem[att.item] += rb
			}
			if r.Done {
				s.done = true
				s.elapsed = t
			}
		} else {
			// Simultaneous finish: the earlier event won; ours is waste.
			s.rep.DuplicateWaste += att.bytes
			s.lossByItem[att.item] += att.bytes
		}
		s.rep.PerPath[name] = st
		if !s.done {
			s.push(simEvent{t: t, kind: evIdle, path: p})
			s.wakeAll(t)
		}
		return
	}

	// Failure (killed or stall-aborted).
	out := scheduler.AttemptFailed
	st.Failures++
	if att.out == attemptStalled {
		out = scheduler.AttemptStalled
		st.Stalls++
		s.rep.StallAborts++
	}
	s.rep.FailureWaste += att.bytes
	r := s.core.Finish(att.item, p, out, t)
	if r.Opened {
		s.rep.BreakerOpens++
		st.BreakerOpens++
	}
	s.rep.PerPath[name] = st
	switch {
	case r.Exhausted:
		s.rep.Failed = fmt.Sprintf("item %d failed on every path (last %s) after %d attempts",
			att.item, name, r.Attempts)
		s.elapsed = t
		return
	case r.Requeued:
		s.rep.Requeues++
	}
	s.push(simEvent{t: t + r.Delay, kind: evIdle, path: p})
	s.wakeAll(t)
}

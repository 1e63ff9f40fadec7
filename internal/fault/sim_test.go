package fault

import (
	"encoding/json"
	"testing"
	"time"

	"threegol/internal/scheduler"
)

func simPaths() []SimPath {
	return []SimPath{
		{Name: "adsl", Rate: 100e3},
		{Name: "phone1", Rate: 200e3},
		{Name: "phone2", Rate: 150e3},
	}
}

func simItems(n int, size int64) []int64 {
	items := make([]int64, n)
	for i := range items {
		items[i] = size
	}
	return items
}

func mustSimulate(t *testing.T, cfg SimConfig) *SimReport {
	t.Helper()
	rep, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return rep
}

func assertExactlyOnce(t *testing.T, rep *SimReport, n int) {
	t.Helper()
	if rep.Failed != "" {
		t.Fatalf("transaction failed: %s", rep.Failed)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d items", rep.Completed, n)
	}
	for i, d := range rep.Delivered {
		if d != 1 {
			t.Fatalf("item %d delivered %d times; want exactly once", i, d)
		}
	}
}

func TestSimulateCleanRun(t *testing.T) {
	rep := mustSimulate(t, SimConfig{Paths: simPaths(), Items: simItems(10, 500e3)})
	assertExactlyOnce(t, rep, 10)
	if rep.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	var total int64
	for _, st := range rep.PerPath {
		total += st.Bytes
	}
	if want := int64(10*500e3) + rep.DuplicateWaste; total != want {
		t.Fatalf("per-path bytes %d; want delivered+waste %d", total, want)
	}
}

func TestSimulateBlackoutAllCompletesOnADSL(t *testing.T) {
	// The acceptance scenario: every 3G path dead for the whole run.
	// 100% of items must land, all via ADSL.
	paths := simPaths()
	plan := MustCompile(ScenarioBlackoutAll, 3, []string{"phone1", "phone2"}, 0)
	rep := mustSimulate(t, SimConfig{
		Paths: paths, Items: simItems(8, 300e3), Plan: plan,
		Resilience: scheduler.Resilience{
			Backoff: scheduler.BackoffConfig{Base: 200 * time.Millisecond, Jitter: 0.5, Seed: 3},
			Breaker: scheduler.BreakerConfig{Threshold: 2},
		},
	})
	assertExactlyOnce(t, rep, 8)
	if got := rep.PerPath["adsl"].Items; got != 8 {
		t.Fatalf("adsl delivered %d of 8", got)
	}
	for _, phone := range []string{"phone1", "phone2"} {
		st := rep.PerPath[phone]
		if st.Items != 0 {
			t.Fatalf("%s delivered %d items through an eternal blackout", phone, st.Items)
		}
		if st.Bytes != 0 {
			t.Fatalf("%s moved %d bytes through an eternal blackout", phone, st.Bytes)
		}
	}
	if rep.BreakerOpens == 0 {
		t.Fatalf("dead paths never tripped the breaker")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		plan := MustCompile(sc, 11, []string{"phone1", "phone2"}, 120)
		cfg := SimConfig{
			Paths: simPaths(), Items: simItems(12, 400e3), Plan: plan,
			Resilience: scheduler.Resilience{
				Backoff:      scheduler.BackoffConfig{Base: 100 * time.Millisecond, Jitter: 0.5, Seed: 11},
				StallTimeout: 2 * time.Second, Breaker: scheduler.BreakerConfig{Threshold: 3},
			},
		}
		a, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("%s: reports differ across identical runs\n%s\n%s", sc, ja, jb)
		}
		assertExactlyOnce(t, a, 12)
	}
}

func TestSimulateDuplicateWasteBound(t *testing.T) {
	// GRD invariant (§4.1.1): at any item's completion, the losing
	// replicas' bytes sum to at most (N−1)·Sm — each of the other N−1
	// paths carries at most one replica, each ≤ Sm bytes in. That is
	// the per-completion maximum; cumulative DuplicateWaste may exceed
	// the bound whenever requeues open a second endgame, so it is only
	// sanity-checked against the per-completion figure here.
	const size = int64(400e3)
	for _, sc := range []Scenario{ScenarioNone, ScenarioFlaky, ScenarioStall, ScenarioHostile} {
		plan := MustCompile(sc, 5, []string{"phone1", "phone2"}, 120)
		rep := mustSimulate(t, SimConfig{
			Paths: simPaths(), Items: simItems(9, size), Plan: plan,
			Resilience: scheduler.Resilience{
				Backoff:      scheduler.BackoffConfig{Base: 100 * time.Millisecond, Jitter: 0.5, Seed: 5},
				StallTimeout: 2 * time.Second, Breaker: scheduler.BreakerConfig{Threshold: 3},
			},
		})
		assertExactlyOnce(t, rep, 9)
		bound := int64(len(simPaths())-1) * size
		if rep.MaxCompletionWaste > bound {
			t.Errorf("%s: completion waste %d exceeds (N-1)·Sm = %d",
				sc, rep.MaxCompletionWaste, bound)
		}
		if rep.MaxCompletionWaste > rep.DuplicateWaste {
			t.Errorf("%s: max completion waste %d exceeds cumulative %d",
				sc, rep.MaxCompletionWaste, rep.DuplicateWaste)
		}
	}
}

func TestSimulateStallWatchdog(t *testing.T) {
	// One long stall window on phone1. With the watchdog armed the
	// attempt aborts after StallTimeout; without it the transfer waits
	// the stall out and finishes later.
	plan := NewPlan(Window{Target: "phone1", Kind: Stall, Start: 0, End: 50})
	base := SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(1, 100e3),
		Plan:  plan,
	}

	patient := base
	rep := mustSimulate(t, patient)
	if rep.Elapsed != 51 { // 50s stall + 1s transfer
		t.Fatalf("patient run elapsed %v; want 51", rep.Elapsed)
	}
	if rep.StallAborts != 0 {
		t.Fatalf("watchdog disabled but %d stall aborts", rep.StallAborts)
	}

	armed := base
	armed.StallTimeout = 2 * time.Second
	armed.MaxRetries = 100
	rep = mustSimulate(t, armed)
	if rep.StallAborts == 0 {
		t.Fatalf("armed watchdog never fired")
	}
	// Every abort costs StallTimeout, and the item retries on the same
	// path until the stall window passes: elapsed = 50 + 1.
	if rep.Elapsed != 51 {
		t.Fatalf("armed run elapsed %v; want 51", rep.Elapsed)
	}
}

func TestSimulateExhaustionFails(t *testing.T) {
	// A single eternally-dead path must abort, not hang.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: Forever})
	rep := mustSimulate(t, SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(2, 100e3),
		Plan:  plan,
	})
	if rep.Failed == "" {
		t.Fatalf("expected transaction failure with every path dead")
	}
	if rep.Completed != 0 {
		t.Fatalf("completed %d items through an eternal blackout", rep.Completed)
	}
}

func TestSimulateBackoffSlowsRetries(t *testing.T) {
	// A dead path burning its retry budget: with backoff the virtual
	// clock advances between attempts; without it all failures land at
	// t=0.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: Forever})
	cfg := SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(1, 100e3),
		Plan:  plan,
	}
	rep := mustSimulate(t, cfg)
	if rep.Elapsed != 0 {
		t.Fatalf("no backoff: failure should resolve at t=0, got %v", rep.Elapsed)
	}
	cfg.Backoff.Base = time.Second
	rep = mustSimulate(t, cfg)
	// Three attempts: the second waits ≥1s, the third ≥2s.
	if rep.Elapsed < 3 {
		t.Fatalf("backoff: elapsed %v; want ≥ 3", rep.Elapsed)
	}
}

func TestSimulateBreakerHoldsPath(t *testing.T) {
	// phone1 is dead for 10s then clean. With the breaker, its failures
	// eject it and half-open probes readmit it after recovery; items
	// still complete exactly once.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: 10})
	rep := mustSimulate(t, SimConfig{
		Paths: []SimPath{
			{Name: "adsl", Rate: 10e3},
			{Name: "phone1", Rate: 1000e3},
		},
		Items: simItems(6, 200e3),
		Plan:  plan,
		Resilience: scheduler.Resilience{
			MaxRetries: 50,
			Backoff:    scheduler.BackoffConfig{Base: 500 * time.Millisecond},
			Breaker:    scheduler.BreakerConfig{Threshold: 2, Cooldown: time.Second},
		},
	})
	assertExactlyOnce(t, rep, 6)
	if rep.BreakerOpens == 0 {
		t.Fatalf("breaker never opened on a dead path")
	}
	if rep.PerPath["phone1"].Items == 0 {
		t.Fatalf("phone1 never readmitted after recovery")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Fatalf("no paths should be rejected")
	}
	if _, err := Simulate(SimConfig{Paths: []SimPath{{Name: "x", Rate: 0}}}); err == nil {
		t.Fatalf("zero rate should be rejected")
	}
	rep := mustSimulate(t, SimConfig{Paths: simPaths()})
	if rep.Completed != 0 || rep.Failed != "" {
		t.Fatalf("empty item list should complete vacuously: %+v", rep)
	}
}

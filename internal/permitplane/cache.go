package permitplane

import (
	"context"
	"fmt"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
)

// Refresh-window defaults: a granted permit is proactively refreshed at
// a deterministic, per-device-jittered point in [lo, hi]×TTL, so a
// fleet of devices granted together never returns together.
const (
	DefaultRefreshLo = 0.7
	DefaultRefreshHi = 0.95
)

// Cooldowns after non-granted refreshes: a denial is re-checked after
// a few seconds ("the transmission is denied, and the device does not
// advertise"), a backend failure backs off briefly so a dead backend
// does not turn every request into a round trip.
const (
	denyCooldown  = 5 * time.Second
	errorCooldown = 2 * time.Second
)

// Degraded-mode defaults: the breaker opens after
// DefaultBreakerThreshold consecutive refresh failures, holds for
// DefaultBreakerCooldown before the first half-open probe (doubling per
// failed probe up to DefaultBreakerMaxCooldown), and a fail-open cache
// honours the last granted permit for at most DefaultGrace past its
// genuine expiry.
const (
	DefaultBreakerThreshold   = 3
	DefaultBreakerCooldown    = 2 * time.Second
	DefaultBreakerMaxCooldown = 30 * time.Second
	DefaultGrace              = 30 * time.Second
)

// Cache is the device-side permit cache of the production plane. Three
// properties matter at fleet scale:
//
//   - Proactive, TTL-jittered refresh: instead of refreshing at expiry
//     (where every device granted in the same backend restart returns
//     in the same instant), the cache refreshes at a deterministic
//     per-device point inside [RefreshLo, RefreshHi]×TTL. The jitter
//     stream is seeded and replayable (JitterFrac), so tests can prove
//     the desynchronisation bound.
//   - Singleflight: concurrent callers coalesce onto one in-flight
//     refresh instead of issuing one round trip each.
//   - Stale-while-refresh: while a proactive refresh is in flight, the
//     still-valid cached verdict keeps serving, so the refresh never
//     stalls the request path; and a failed proactive refresh keeps
//     the permit until its granted TTL genuinely lapses.
//
// When the backend becomes unreachable the cache enters an explicit
// degraded state behind a per-endpoint circuit breaker: after
// BreakerThreshold consecutive refresh failures it stops issuing
// backend round trips and serves a local degraded verdict — fail-open
// (honour the last granted permit for up to Grace past its genuine
// expiry) or fail-closed (no permit, no onloading; the scheduler's
// gated path then fails with ErrNotPermitted and the transfer falls
// back to ADSL, exactly the blackout behaviour). Jittered half-open
// probes re-close the breaker the moment the backend answers again.
type Cache struct {
	// Fetch performs one backend refresh (BatchClient.Fetch, or a test
	// double). Required.
	Fetch func(ctx context.Context, device, cell string) (permit.Response, error)
	// Device and Cell identify this device and its serving cell.
	Device, Cell string
	// Seed salts the jitter stream; the draw also mixes in Device, so
	// a fleet sharing one configured seed still desynchronises.
	Seed int64
	// RefreshLo and RefreshHi bound the proactive-refresh window as
	// fractions of the granted TTL; zero values select the defaults.
	// Setting both to 1 disables proactive refresh (refresh exactly at
	// expiry — the TTL-boundary tests pin that edge).
	RefreshLo, RefreshHi float64
	// Clock times TTLs; nil selects the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, receives cache instrumentation.
	Metrics *Metrics
	// Events, when non-nil, records a point per refresh, joining the
	// TraceContext riding the caller's context.
	Events *eventlog.Log

	// FailOpen selects the degraded-mode policy: true keeps honouring
	// the last granted permit for up to Grace past its genuine expiry
	// while the backend is unreachable; false (the default) fails
	// closed — no reachable backend, no onloading.
	FailOpen bool
	// Grace bounds the fail-open stale-permit window, measured from the
	// granted permit's genuine expiry; 0 selects DefaultGrace.
	Grace time.Duration
	// BreakerThreshold is the consecutive refresh-failure count that
	// opens the breaker; 0 selects DefaultBreakerThreshold, negative
	// disables degraded mode entirely.
	BreakerThreshold int
	// BreakerCooldown is the hold before the first half-open probe,
	// doubling per failed probe up to BreakerMaxCooldown; zeros select
	// DefaultBreakerCooldown and DefaultBreakerMaxCooldown.
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration

	mu        sync.Mutex
	haveState bool
	granted   bool
	expires   time.Time
	refreshAt time.Time
	flight    chan struct{} // non-nil while a refresh is in flight
	draws     uint64        // jitter draws so far (the stream position)

	degraded    bool
	consecFails int
	probeAt     time.Time     // degraded: when the next half-open probe unlocks
	cooldown    time.Duration // hold applied at the next failed probe
	grantExpiry time.Time     // genuine expiry of the last granted permit
}

func (c *Cache) window() (lo, hi float64) {
	lo, hi = c.RefreshLo, c.RefreshHi
	if lo <= 0 {
		lo = DefaultRefreshLo
	}
	if hi <= 0 {
		hi = DefaultRefreshHi
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (c *Cache) breakerThreshold() int {
	if c.BreakerThreshold == 0 {
		return DefaultBreakerThreshold
	}
	if c.BreakerThreshold < 0 {
		return 0 // degraded mode disabled
	}
	return c.BreakerThreshold
}

func (c *Cache) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

func (c *Cache) breakerMaxCooldown() time.Duration {
	if c.BreakerMaxCooldown > 0 {
		return c.BreakerMaxCooldown
	}
	return DefaultBreakerMaxCooldown
}

func (c *Cache) grace() time.Duration {
	if c.Grace > 0 {
		return c.Grace
	}
	return DefaultGrace
}

// Mode reports "normal" or "degraded" — the explicit state the load
// harness and operators observe.
func (c *Cache) Mode() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.degraded {
		return "degraded"
	}
	return "normal"
}

// degradedVerdictLocked is the no-round-trip verdict served while the
// breaker is open: fail-open honours the last granted permit inside its
// grace window (measured from the permit's genuine expiry); everything
// else fails closed. staleGrant reports which branch served.
func (c *Cache) degradedVerdictLocked(now time.Time) (allowed, staleGrant bool) {
	if c.FailOpen && !c.grantExpiry.IsZero() && now.Before(c.grantExpiry.Add(c.grace())) {
		return true, true
	}
	return false, false
}

// Allowed reports whether the device currently holds a valid permit,
// refreshing from the backend as needed. It is safe for concurrent use
// and matches the proxy.Server Admit hook shape. The context rides into
// the refresh, so traces and cancellation propagate to the backend.
func (c *Cache) Allowed(ctx context.Context) bool {
	for {
		c.mu.Lock() //3golvet:allow locksafe — singleflight state machine: every branch unlocks before blocking or returning
		now := clock.Or(c.Clock).Now()
		fresh := c.haveState && now.Before(c.expires)
		due := !c.haveState || !now.Before(c.refreshAt)
		if fresh && !due {
			v := c.granted
			c.mu.Unlock()
			c.Metrics.cacheHit()
			return v
		}
		if c.degraded && (now.Before(c.probeAt) || c.flight != nil) {
			// Breaker open: no backend round trip. A still-valid permit
			// keeps serving; otherwise the local degraded verdict does.
			if fresh {
				v := c.granted
				c.mu.Unlock()
				c.Metrics.cacheHit()
				return v
			}
			v, stale := c.degradedVerdictLocked(now)
			c.mu.Unlock()
			c.Metrics.cacheDegradedServed(stale)
			return v
		}
		if c.flight != nil {
			// Someone else is refreshing. A still-valid permit keeps
			// serving (stale-while-refresh); an expired one waits for
			// the flight's result rather than duplicating it.
			if fresh {
				v := c.granted
				c.mu.Unlock()
				c.Metrics.cacheCoalesced()
				return v
			}
			flight := c.flight
			c.mu.Unlock()
			c.Metrics.cacheCoalesced()
			select {
			case <-flight:
				continue // re-read the refreshed state
			case <-ctx.Done():
				return false // fail safe: no permit, no onloading
			}
		}
		flight := make(chan struct{})
		c.flight = flight
		probing := c.degraded // breaker cooldown elapsed: this call is the half-open probe
		c.mu.Unlock()
		return c.refresh(ctx, flight, fresh, probing)
	}
}

// refresh performs the backend round trip this caller won the right to
// make, installs the result, and releases any coalesced waiters.
// proactive records that the cached permit was still valid when the
// refresh was issued; probing records that this round trip is a
// degraded cache's half-open breaker probe.
func (c *Cache) refresh(ctx context.Context, flight chan struct{}, proactive, probing bool) bool {
	resp, err := c.Fetch(ctx, c.Device, c.Cell)
	now := clock.Or(c.Clock).Now()
	granted := err == nil && resp.Granted
	c.Metrics.cacheRefreshed(granted, err, proactive)
	if probing {
		c.Metrics.cacheProbed(err == nil)
	}
	tc, _ := eventlog.FromContext(ctx)
	c.Events.Point(tc, "permitplane.cache_refresh",
		"cell", c.Cell, "granted", fmt.Sprintf("%t", granted),
		"ok", fmt.Sprintf("%t", err == nil),
		"proactive", fmt.Sprintf("%t", proactive))

	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(flight)
	c.flight = nil
	entered := c.noteBreakerLocked(err, probing, now)
	if entered {
		c.Metrics.cacheDegradedEnter()
		c.Events.Point(tc, "permitplane.cache_degraded",
			"cell", c.Cell, "fail_open", fmt.Sprintf("%t", c.FailOpen))
	}
	switch {
	case err != nil && c.haveState && now.Before(c.expires):
		// A failed proactive refresh must not revoke a permit the
		// backend granted for a TTL that has not lapsed; retry shortly
		// and keep serving the cached verdict until real expiry.
		c.refreshAt = now.Add(errorCooldown)
		return c.granted
	case err != nil && c.degraded:
		// The degraded verdict is recomputed per call, never cached:
		// the fail-open grace boundary stays exact (honoured one second
		// before it, rejected one second after).
		v, stale := c.degradedVerdictLocked(now)
		c.Metrics.cacheDegradedServed(stale)
		return v
	case err != nil:
		c.haveState = true
		c.granted = false
		c.expires = now.Add(errorCooldown)
		c.refreshAt = c.expires
		return false
	}
	c.haveState = true
	c.granted = resp.Granted
	ttl := time.Duration(resp.TTLSeconds * float64(time.Second))
	if !resp.Granted || ttl <= 0 {
		c.expires = now.Add(denyCooldown)
		c.refreshAt = c.expires
		return c.granted
	}
	c.expires = now.Add(ttl)
	c.grantExpiry = c.expires
	lo, hi := c.window()
	frac := lo + (hi-lo)*JitterFrac(c.Seed, c.Device, c.draws)
	c.draws++
	c.refreshAt = now.Add(time.Duration(frac * float64(ttl)))
	return c.granted
}

// noteBreakerLocked advances the circuit breaker on one refresh result
// and reports whether the cache just entered degraded mode. A success
// re-closes the breaker; a failed probe re-opens with a doubled
// cooldown; reaching the threshold of consecutive failures while
// closed opens it.
func (c *Cache) noteBreakerLocked(err error, probing bool, now time.Time) (entered bool) {
	if err == nil {
		c.degraded = false
		c.consecFails = 0
		c.cooldown = 0
		return false
	}
	th := c.breakerThreshold()
	switch {
	case probing:
		c.cooldown *= 2
		if m := c.breakerMaxCooldown(); c.cooldown > m {
			c.cooldown = m
		}
		c.probeAt = now.Add(c.cooldown)
	case !c.degraded && th > 0:
		c.consecFails++
		if c.consecFails >= th {
			c.degraded = true
			c.cooldown = c.breakerCooldown()
			c.probeAt = now.Add(c.cooldown)
			return true
		}
	}
	return false
}

// Invalidate drops the cached permit, forcing a refresh on next use.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.haveState = false
	c.expires = time.Time{}
	c.refreshAt = time.Time{}
}

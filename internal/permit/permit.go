// Package permit implements the 3GOL backend of the network-integrated
// deployment (§2.4): devices ask permission to onload; the backend
// consults the cellular monitoring system and grants a time-limited
// permit only while utilisation in the device's cell is below the
// acceptance threshold. Devices cache the permit (permitplane.Cache)
// and stop advertising themselves on the LAN the moment it lapses.
package permit

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
)

// DefaultTTL is how long a granted permit stays valid ("a permit is
// cached for a certain duration (few minutes)"); tests override it.
const DefaultTTL = 3 * time.Minute

// DefaultThreshold is the default utilisation acceptance threshold.
const DefaultThreshold = 0.7

// Backend is the operator-side permit server. It is an http.Handler
// exposing GET /permit?device=<id>&cell=<id>.
type Backend struct {
	// Utilization reports current utilisation (0..1) of a cell — the
	// interface to the 3G network monitoring system. Required. It is
	// called from HTTP handler goroutines and must be safe for
	// concurrent use (sample into an atomic snapshot rather than
	// reaching into single-threaded state).
	Utilization func(cellID string) float64
	// Threshold is the acceptance threshold; 0 selects DefaultThreshold.
	Threshold float64
	// TTL is the permit lifetime; 0 selects DefaultTTL.
	TTL time.Duration
	// Metrics, when non-nil, receives decision instrumentation (see
	// NewMetrics).
	Metrics *Metrics
	// Events, when non-nil, records a flight-recorder point per permit
	// decision, parented to the caller's X-3gol-Trace header when
	// present — stitching backend decisions into device-side traces.
	Events *eventlog.Log
	// Tracer, when non-nil, times each decision into the obs span ring
	// (surfaced at /debug/spans).
	Tracer *obs.Tracer
	// Clock times decisions for Metrics; nil selects the system clock.
	Clock clock.Clock
	// OnGrant, when non-nil, fires after each granted decision with the
	// cell ID — the hook the permit plane's admission loop uses to feed
	// granted load back into the cell-utilisation model. It is called
	// from handler goroutines and must be safe for concurrent use.
	OnGrant func(cellID string)
	// Tags are extra attribute pairs appended to every decision's
	// flight-recorder point (e.g. "shard", "3" in the sharded plane).
	Tags []string

	grants  atomic.Int64
	denials atomic.Int64
}

// Response is the backend's JSON reply.
type Response struct {
	Granted    bool    `json:"granted"`
	TTLSeconds float64 `json:"ttl_seconds"`
	// Utilization echoes the observed cell utilisation (diagnostics).
	Utilization float64 `json:"utilization"`
}

func (b *Backend) threshold() float64 {
	if b.Threshold <= 0 {
		return DefaultThreshold
	}
	return b.Threshold
}

func (b *Backend) ttl() time.Duration {
	if b.TTL <= 0 {
		return DefaultTTL
	}
	return b.TTL
}

// ServeHTTP implements http.Handler.
func (b *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/permit" {
		http.NotFound(w, r)
		return
	}
	if b.Utilization == nil {
		http.Error(w, "backend misconfigured: no monitoring hook", http.StatusInternalServerError)
		return
	}
	cell := r.URL.Query().Get("cell")
	if cell == "" {
		http.Error(w, "missing cell parameter", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if tc, ok := eventlog.ExtractHTTP(r.Header); ok {
		ctx = eventlog.NewContext(ctx, tc)
	}
	resp := b.Decide(ctx, cell)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp) // client disconnect; nothing to do
}

// Decide makes one admission decision for a cell: granted while the
// monitoring hook reports utilisation below the threshold, denied
// otherwise. It is the transport-independent core of ServeHTTP — the
// sharded permit plane's batch RPC calls it directly, once per request
// in the batch. The flight-recorder point joins the TraceContext riding
// ctx (HTTP callers extract the X-3gol-Trace header into it first).
func (b *Backend) Decide(ctx context.Context, cell string) Response {
	clk := clock.Or(b.Clock)
	t0 := clk.Now()
	defer b.Tracer.Start("permit.decision").End()
	util := b.Utilization(cell)
	resp := Response{Utilization: util}
	if util < b.threshold() {
		resp.Granted = true
		resp.TTLSeconds = b.ttl().Seconds()
	}
	b.count(resp.Granted)
	if resp.Granted && b.OnGrant != nil {
		b.OnGrant(cell)
	}
	b.Metrics.decided(resp.Granted, clk.Since(t0).Seconds())
	tc, _ := eventlog.FromContext(ctx)
	attrs := []string{"cell", cell, "granted", fmt.Sprintf("%t", resp.Granted),
		"utilization", eventlog.Float(util)}
	attrs = append(attrs, b.Tags...)
	b.Events.Point(tc, "permit.decision", attrs...)
	return resp
}

// count tallies one decision. Atomic, not mutex-guarded: the decision
// path is the backend's hot loop and needs no lock at all.
func (b *Backend) count(granted bool) {
	if granted {
		b.grants.Add(1)
	} else {
		b.denials.Add(1)
	}
}

// Stats reports how many requests were granted and denied.
func (b *Backend) Stats() (grants, denials int64) {
	return b.grants.Load(), b.denials.Load()
}

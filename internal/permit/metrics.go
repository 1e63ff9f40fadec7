package permit

import "threegol/internal/obs"

// Decision labels as recorded in Metrics.
const (
	decisionGranted = "granted"
	decisionDenied  = "denied"
)

// Metrics holds the permit backend's instruments; register with
// NewMetrics and assign to Backend.Metrics. A nil Metrics disables
// instrumentation.
type Metrics struct {
	// Decisions counts backend permit decisions (granted | denied).
	Decisions *obs.Counter
	// DecisionSeconds is the backend's service time per decision,
	// dominated by the Utilization monitoring hook.
	DecisionSeconds *obs.Histogram
}

// NewMetrics registers the permit subsystem's metrics on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Decisions: r.NewCounter("permit_decisions_total",
			"Backend permit decisions, by decision (granted | denied).", "decision"),
		DecisionSeconds: r.NewHistogram("permit_decision_seconds",
			"Backend service time per permit decision.",
			0, 60, 1200),
	}
}

func (m *Metrics) decided(granted bool, secs float64) {
	if m == nil {
		return
	}
	d := decisionDenied
	if granted {
		d = decisionGranted
	}
	m.Decisions.With(d).Inc()
	m.DecisionSeconds.Observe(secs)
}

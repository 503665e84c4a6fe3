package fault

import "sync"

// State is a store's health.
type State int

const (
	// Healthy: serving normally.
	Healthy State = iota
	// Degraded: recent repeated I/O failures (e.g. spill disk errors);
	// the store still serves — with in-memory fallbacks engaged — and
	// heals back to Healthy on the next successful I/O.
	Degraded
	// Failed: integrity is compromised (corruption detected) or the
	// store never opened. Sticky: a failed store does not heal; admission
	// is gated with 503 until the operator replaces the data.
	Failed
)

// String returns the state's wire name (used in headers and healthz).
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// DegradeAfter is the number of consecutive I/O failures that moves a
// store from Healthy to Degraded.
const DegradeAfter = 3

// Health is a per-store health state machine fed by the store's open and
// the engine's spill I/O. It is safe for concurrent use.
//
// Transitions: Fail (a store that could not be opened, corrupt data
// included) → Failed (sticky). DegradeAfter consecutive I/O failures →
// Degraded; any I/O success heals Degraded → Healthy. Failed is terminal —
// integrity errors cannot be waited out.
type Health struct {
	mu          sync.Mutex
	state       State
	reason      string
	consecutive int
	ioFailures  int64
}

// NewHealth returns a Healthy health machine.
func NewHealth() *Health { return &Health{} }

// State returns the current state.
func (h *Health) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Reason returns the explanation for a non-healthy state ("" when
// Healthy).
func (h *Health) Reason() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reason
}

// Fail transitions to Failed (sticky) with an operator-readable reason;
// used for stores that could not be opened at all.
func (h *Health) Fail(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Failed {
		h.state = Failed
		h.reason = reason
	}
}

// ReportIOFailure records a (possibly transient) I/O failure. After
// DegradeAfter consecutive failures the store becomes Degraded. Does not
// escalate to Failed: I/O errors are not integrity errors.
func (h *Health) ReportIOFailure(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ioFailures++
	h.consecutive++
	if h.state == Healthy && h.consecutive >= DegradeAfter {
		h.state = Degraded
		if err != nil {
			h.reason = err.Error()
		} else {
			h.reason = "repeated I/O failures"
		}
	}
}

// ReportIOSuccess records a successful I/O operation, resetting the
// consecutive-failure count and healing Degraded back to Healthy.
func (h *Health) ReportIOSuccess() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecutive = 0
	if h.state == Degraded {
		h.state = Healthy
		h.reason = ""
	}
}

// HealthSnapshot is a point-in-time view for healthz reporting.
type HealthSnapshot struct {
	State       string `json:"state"`
	Reason      string `json:"reason,omitempty"`
	Consecutive int    `json:"consecutive_io_failures,omitempty"`
	IOFailures  int64  `json:"io_failures,omitempty"`
}

// Snapshot returns the current state and counters.
func (h *Health) Snapshot() HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HealthSnapshot{
		State:       h.state.String(),
		Reason:      h.reason,
		Consecutive: h.consecutive,
		IOFailures:  h.ioFailures,
	}
}

package iss

import "rvcte/internal/obs"

// Metrics is the ISS's observability sink bundle (Core.Metrics): every
// Run call adds the instructions it retired to Instr ("iss.instr"), one
// completed execution to Execs ("iss.execs") and its block-cache hit,
// miss and invalidation counts to BBHits/BBMisses/BBInval
// ("iss.bb.hits", "iss.bb.misses", "iss.bb.inval") when it returns.
// Counting happens once per run, not per instruction, so the simulation
// loop stays unobserved. The counters are atomic, so one bundle may be
// shared by every core and worker of a campaign; a nil counter is a
// no-op sink (the hybrid engine's concolic replays run with a nil Execs:
// they are simulated work, not fuzz executions).
type Metrics struct {
	Instr, Execs              *obs.Counter
	BBHits, BBMisses, BBInval *obs.Counter
}

// NewMetrics looks the ISS counters up in m. It returns nil for a nil
// registry, which leaves cores unobserved.
func NewMetrics(m *obs.Registry) *Metrics {
	if m == nil {
		return nil
	}
	return &Metrics{
		Instr:    m.Counter("iss.instr"),
		Execs:    m.Counter("iss.execs"),
		BBHits:   m.Counter("iss.bb.hits"),
		BBMisses: m.Counter("iss.bb.misses"),
		BBInval:  m.Counter("iss.bb.inval"),
	}
}

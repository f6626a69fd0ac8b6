package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// scenarios maps each built-in scenario name to the constructor of its
// case study. "paper" is the case study exactly as §7 configures it
// (Default); the others stretch the same machinery along the axes the
// paper holds fixed — fleet shape, arrival pressure, hardware drift and
// the workload source — without touching any experiment code. Every
// constructor returns an independent value: Run mutates it with spec
// overrides and caches the trained rlbase policy on it.
var scenarios = map[string]func() *CaseStudy{
	"paper":             Default,
	"hetero-fleet":      HeteroFleet,
	"stress-arrivals":   StressArrivals,
	"calibration-drift": CalibrationDrift,
	"trace-replay":      TraceReplay,
}

// NewScenario builds a fresh case study for the named scenario. The
// empty name resolves to "paper".
func NewScenario(name string) (*CaseStudy, error) {
	if name == "" {
		name = "paper"
	}
	fn, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q (scenarios: %v)", name, ScenarioNames())
	}
	return fn(), nil
}

// ScenarioNames lists the built-in scenarios, sorted.
func ScenarioNames() []string {
	out := make([]string, 0, len(scenarios))
	//lint:allow detlint collect-then-sort: the sort.Strings below fixes the order before anyone observes it
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HeteroFleet is the paper's workload on a mixed-capacity cloud
// (127+127+80+65+27 qubits, with the small devices rated fastest —
// the "hetero" device.PresetFleet). Capacity drops from 635 to 426
// qubits while every job still needs at least two devices, so the
// speed/fidelity trade-off sharpens: policies must now also decide
// whether to touch the slow large machines at all.
func HeteroFleet() *CaseStudy {
	cs := Default()
	cs.FleetPreset = "hetero"
	return cs
}

// StressArrivals is the paper's cloud under 6× arrival pressure: the
// mean inter-arrival time drops from 60s to 10s, so jobs pile up
// faster than the fleet drains them and queueing discipline — not raw
// placement quality — dominates the outcome.
func StressArrivals() *CaseStudy {
	cs := Default()
	cs.Workload.MeanInterarrival = 10
	return cs
}

// CalibrationDrift is the paper's workload on drifting hardware: every
// simulated hour each device's calibration takes a 30% relative
// random-walk step and its error score is recomputed, so error-aware
// policies chase a moving target — the dynamic hardware variability
// the paper's model omits (§7.2). Drift lives inside Core, so the
// scenario reproduces bit-identically whatever the pool size.
func CalibrationDrift() *CaseStudy {
	cs := Default()
	cs.Core.Drift = core.DriftConfig{IntervalS: 3600, Rel: 0.3, Seed: 17}
	return cs
}

// TraceReplay replays a recorded workload trace instead of generating
// the synthetic workload, so a captured production stream (or any
// workload exported with job.WriteCSV) runs under every strategy with
// full manifest provenance. The default trace is the
// committed smoke trace, resolved against the repository root (the
// experiments CLI's working directory); a spec's trace_path override
// points it anywhere else.
func TraceReplay() *CaseStudy {
	cs := Default()
	cs.TracePath = "specs/trace-smoke.csv"
	return cs
}

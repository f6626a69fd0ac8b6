package experiments

import (
	"fmt"

	"repro/internal/core"
)

// scenarios lists the built-in scenarios in name order, each as the
// fields it changes from the paper case study (Default). "paper" is
// the case study exactly as §7 configures it; the others stretch the
// same machinery along the axes the paper holds fixed — fleet shape,
// arrival pressure, hardware drift and the workload source — without
// touching any experiment code.
var scenarios = []struct {
	name  string
	apply func(*CaseStudy)
}{
	// Drifting hardware: every simulated hour each device's calibration
	// takes a 30% relative random-walk step and its error score is
	// recomputed, so error-aware policies chase a moving target — the
	// dynamic hardware variability the paper's model omits (§7.2).
	// Drift lives inside the model constants, so the scenario
	// reproduces bit-identically whatever the pool size.
	{"calibration-drift", func(cs *CaseStudy) {
		cs.Model.Drift = core.DriftConfig{IntervalS: 3600, Rel: 0.3, Seed: 17}
	}},
	// The paper's workload on a mixed-capacity cloud (127+127+80+65+27
	// qubits, with the small devices rated fastest — the "hetero"
	// device.PresetFleet). Capacity drops from 635 to 426 qubits while
	// every job still needs at least two devices, so the speed/fidelity
	// trade-off sharpens: policies must now also decide whether to
	// touch the slow large machines at all.
	{"hetero-fleet", func(cs *CaseStudy) { cs.Preset = "hetero" }},
	{"paper", func(*CaseStudy) {}},
	// The paper's cloud under 6× arrival pressure: the mean
	// inter-arrival time drops from 60s to 10s, so jobs pile up faster
	// than the fleet drains them and queueing discipline — not raw
	// placement quality — dominates the outcome.
	{"stress-arrivals", func(cs *CaseStudy) { cs.Workload.Synthetic.MeanInterarrival = 10 }},
	// A recorded workload trace instead of the synthetic workload, so
	// a captured production stream (or any workload exported with
	// job.WriteCSV) runs under every strategy with full manifest
	// provenance. The default trace is the committed smoke trace,
	// resolved against the repository root (the experiments CLI's
	// working directory); a spec's trace_path override points it
	// anywhere else.
	{"trace-replay", func(cs *CaseStudy) { cs.replay("specs/trace-smoke.csv") }},
}

// NewScenario builds a fresh case study for the named scenario. The
// empty name resolves to "paper". Every call returns an independent
// value: Run mutates it with spec overrides and caches the trained
// rlbase policy on it.
func NewScenario(name string) (*CaseStudy, error) {
	if name == "" {
		name = "paper"
	}
	for _, s := range scenarios {
		if s.name == name {
			cs := Default()
			s.apply(cs)
			return cs, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown scenario %q (scenarios: %v)", name, ScenarioNames())
}

// ScenarioNames lists the built-in scenarios, sorted.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.name
	}
	return out
}

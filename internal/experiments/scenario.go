package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// A ScenarioFunc builds a fresh, fully configured case study for one
// named scenario. Every call must return an independent value: Run
// mutates the returned case study with spec overrides and caches the
// trained rlbase policy on it.
type ScenarioFunc func() *CaseStudy

// scenarios maps scenario names to constructors. Built-ins register in
// init; user packages may register more at startup.
var scenarios = struct {
	sync.RWMutex
	byName map[string]ScenarioFunc
}{byName: make(map[string]ScenarioFunc)}

// RegisterScenario adds a named scenario. Duplicate names fail loudly:
// two packages redefining the same scenario would silently change what
// a spec file means.
func RegisterScenario(name string, fn ScenarioFunc) error {
	if name == "" {
		return fmt.Errorf("experiments: RegisterScenario with empty name")
	}
	if fn == nil {
		return fmt.Errorf("experiments: RegisterScenario %q with nil constructor", name)
	}
	scenarios.Lock()
	defer scenarios.Unlock()
	if _, dup := scenarios.byName[name]; dup {
		return fmt.Errorf("experiments: scenario %q already registered", name)
	}
	scenarios.byName[name] = fn
	return nil
}

// MustRegisterScenario is RegisterScenario that panics on error, for
// package init use.
func MustRegisterScenario(name string, fn ScenarioFunc) {
	if err := RegisterScenario(name, fn); err != nil {
		panic(err)
	}
}

// NewScenario builds a fresh case study for the named scenario. The
// empty name resolves to "paper".
func NewScenario(name string) (*CaseStudy, error) {
	if name == "" {
		name = "paper"
	}
	scenarios.RLock()
	fn, ok := scenarios.byName[name]
	scenarios.RUnlock()
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q (registered: %v)", name, ScenarioNames())
	}
	return fn(), nil
}

// ScenarioRegistered reports whether name resolves to a scenario.
func ScenarioRegistered(name string) bool {
	if name == "" {
		name = "paper"
	}
	scenarios.RLock()
	defer scenarios.RUnlock()
	_, ok := scenarios.byName[name]
	return ok
}

// ScenarioNames lists the registered scenarios, sorted.
func ScenarioNames() []string {
	scenarios.RLock()
	defer scenarios.RUnlock()
	out := make([]string, 0, len(scenarios.byName))
	//lint:allow detlint collect-then-sort: the sort.Strings below fixes the order before anyone observes it
	for name := range scenarios.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in scenarios. "paper" is the case study exactly as §7
// configures it (Default); the other two stretch the same machinery
// along the axes the paper holds fixed — fleet shape and arrival
// pressure — without touching any experiment code, which is the point
// of the registry.
func init() {
	MustRegisterScenario("paper", Default)
	MustRegisterScenario("hetero-fleet", HeteroFleet)
	MustRegisterScenario("stress-arrivals", StressArrivals)
	MustRegisterScenario("calibration-drift", CalibrationDrift)
	MustRegisterScenario("trace-replay", TraceReplay)
}

// HeteroFleet is the paper's workload on a mixed-capacity cloud
// (127+127+80+65+27 qubits, with the small devices rated fastest —
// see device.HeterogeneousFleet). Capacity drops from 635 to 426
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
// scenario reproduces bit-identically on the Sequential and Parallel
// executors alike.
func CalibrationDrift() *CaseStudy {
	cs := Default()
	cs.Core.Drift = core.DriftConfig{IntervalS: 3600, Rel: 0.3, Seed: 17}
	return cs
}

// TraceReplay replays a recorded workload trace instead of generating
// the synthetic workload, so a captured production stream (or any
// workload exported with job.WriteCSV) runs under every strategy and
// executor with full manifest provenance. The default trace is the
// committed smoke trace, resolved against the repository root (the
// experiments CLI's working directory); a spec's trace_path override
// points it anywhere else.
func TraceReplay() *CaseStudy {
	cs := Default()
	cs.TracePath = "specs/trace-smoke.csv"
	return cs
}

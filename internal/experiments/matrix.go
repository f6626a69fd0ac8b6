package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/records"
)

// TaskMatrix declaratively describes the task set of one orchestrated
// run — the unit Execute runs. It is the single enumeration source of
// truth: every run expands the same matrix into the same spec list in
// the same order, which is what keeps a pooled run's rows in the exact
// one-worker row order. The type is JSON-portable because spec files
// declare it.
type TaskMatrix struct {
	// Kind selects the expansion: "modes" (one task per strategy,
	// Table 2 / Fig. 6), "phi-sweep" / "lambda-sweep" (one task per
	// Values entry running Mode), or "rl-deploy" (the sampled and
	// deterministic rlbase deployments). Replication over workload
	// seeds is not a kind: ReplicationSeeds fans any kind out.
	Kind string `json:"kind"`
	// Modes restricts the "modes" expansion; empty means all four, in
	// the paper's Table 2 order.
	Modes []string `json:"modes,omitempty"`
	// Mode is the strategy for sweep kinds.
	Mode string `json:"mode,omitempty"`
	// Values are the swept parameter values (sweep kinds only).
	Values []float64 `json:"values,omitempty"`
	// ReplicationSeeds fans every task of the matrix out across these
	// workload seeds: each base task becomes one replica per seed, ID
	// suffixed "@seed<k>" (records.ReplicaID), run with the workload
	// seed overridden. Replicas expand task-major (all seeds of task 0,
	// then task 1, …), so every run builds the identical fan-out.
	// A spec's Replications count lowers onto every matrix without a
	// list of its own as the seeds 1..Replications.
	ReplicationSeeds []int64 `json:"replication_seeds,omitempty"`
}

// Label names a manifest produced from this matrix, e.g. "modes" or
// "phi-sweep/speed".
func (m TaskMatrix) Label() string {
	switch m.Kind {
	case "modes", "rl-deploy":
		return m.Kind
	default:
		return m.Kind + "/" + m.Mode
	}
}

// modes returns every strategy the matrix will run, for the upfront
// rlbase training check.
func (m TaskMatrix) modes() []string {
	switch m.Kind {
	case "modes":
		if len(m.Modes) == 0 {
			return Modes
		}
		return m.Modes
	case "rl-deploy":
		return []string{"rlbase"}
	default:
		return []string{m.Mode}
	}
}

// checkMode rejects strategies RunMode would reject — any name that is
// not a policy.Names entry — so a malformed matrix fails during
// planning, before any task runs, rather than deep inside a worker.
func checkMode(mode string) error {
	if !policy.Registered(mode) {
		return fmt.Errorf("experiments: unknown mode %q (registered policies: %v)", mode, policy.Names())
	}
	return nil
}

// MaxTasks bounds the task count of one matrix and of one spec. Every
// task is a full simulation, so a larger run is a typo; counting
// before expanding keeps a decoded spec — whose value and seed lists
// multiply — from allocating a task list that could exhaust memory.
const MaxTasks = 100000

// taskCount is the matrix's task count, computed without expanding it.
// Each factor saturates just past MaxTasks, so the product cannot
// overflow.
func (m TaskMatrix) taskCount() int {
	base := len(m.modes())
	switch m.Kind {
	case "phi-sweep", "lambda-sweep":
		base = len(m.Values)
	case "rl-deploy":
		base = 2
	}
	return min(base, MaxTasks+1) * min(max(1, len(m.ReplicationSeeds)), MaxTasks+1)
}

// specs expands the matrix into the ordered task list — the base
// enumeration fanned out across ReplicationSeeds when set.
func (m TaskMatrix) specs() ([]runSpec, error) {
	if m.taskCount() > MaxTasks {
		return nil, fmt.Errorf("experiments: %s matrix expands to more than MaxTasks (%d) tasks", m.Label(), MaxTasks)
	}
	base, err := m.baseSpecs()
	if err != nil {
		return nil, err
	}
	if len(m.ReplicationSeeds) == 0 {
		return base, nil
	}
	out := make([]runSpec, 0, len(base)*len(m.ReplicationSeeds))
	for _, b := range base {
		for _, seed := range m.ReplicationSeeds {
			r := b
			r.id = records.ReplicaID(b.id, seed)
			inner, s := b.mutate, seed
			r.mutate = func(snap *CaseStudy) {
				if inner != nil {
					inner(snap)
				}
				snap.Workload.Synthetic.Seed = s
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// baseSpecs expands the matrix's own enumeration, before any
// replication fan-out.
func (m TaskMatrix) baseSpecs() ([]runSpec, error) {
	switch m.Kind {
	case "modes":
		modes := m.modes()
		specs := make([]runSpec, len(modes))
		for i, mode := range modes {
			if err := checkMode(mode); err != nil {
				return nil, err
			}
			specs[i] = runSpec{id: "mode/" + mode, kind: "mode", mode: mode}
		}
		return specs, nil
	case "phi-sweep", "lambda-sweep":
		if err := checkMode(m.Mode); err != nil {
			return nil, err
		}
		if len(m.Values) == 0 {
			return nil, fmt.Errorf("experiments: empty sweep")
		}
		set := func(c *core.Config, v float64) { c.Phi = v }
		if m.Kind == "lambda-sweep" {
			set = func(c *core.Config, v float64) { c.Lambda = v }
		}
		specs := make([]runSpec, len(m.Values))
		for i, v := range m.Values {
			specs[i] = runSpec{
				id: fmt.Sprintf("%s/%s/%g", m.Kind, m.Mode, v), kind: m.Kind, mode: m.Mode, param: v,
				mutate: func(snap *CaseStudy) { set(&snap.Model, v) },
			}
		}
		return specs, nil
	case "rl-deploy":
		return []runSpec{
			{id: "rl-deploy/sampled", kind: "rl-deploy", mode: "rlbase",
				mutate: func(snap *CaseStudy) { snap.RLDeterministic = false }},
			{id: "rl-deploy/deterministic", kind: "rl-deploy", mode: "rlbase",
				mutate: func(snap *CaseStudy) { snap.RLDeterministic = true }},
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown task-matrix kind %q", m.Kind)
	}
}

// TaskLabels returns the matrix's task IDs in execution order.
func (m TaskMatrix) TaskLabels() ([]string, error) {
	specs, err := m.specs()
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.id
	}
	return labels, nil
}

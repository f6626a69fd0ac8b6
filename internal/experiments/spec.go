package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/rl"
)

// Spec is the declarative, JSON-round-trippable description of one
// experiment run: which scenario to configure, which task matrices to
// expand, and the handful of knobs worth overriding per run. It is the
// single entry currency of the experiments API — Run(ctx, spec, opt)
// executes a Spec, the experiments CLI compiles its flags down to one,
// and a spec file checked into a repo reproduces a run exactly (all
// random streams derive from the seeds captured here).
type Spec struct {
	// Name labels the run's manifest; empty derives a label from the
	// scenario and matrices.
	Name string `json:"name,omitempty"`
	// Scenario names the built-in base configuration; empty means
	// "paper" (see ScenarioNames).
	Scenario string `json:"scenario,omitempty"`
	// Matrices enumerate the tasks to run, in order. Task IDs must be
	// unique across all matrices, so the combined manifest stays
	// unambiguous.
	Matrices []TaskMatrix `json:"matrices"`
	// Replications fans every matrix task out across the workload
	// seeds 1..Replications (one replica per seed, matching the
	// -replications flag), so the paper-style "mean over replicated
	// workload seeds" tables are one spec field instead of hand-written
	// seed lists. A matrix with its own ReplicationSeeds list keeps it;
	// that list is the one place to pin particular seeds.
	Replications int `json:"replications,omitempty"`
	// Jobs overrides the scenario's workload size when > 0. Refused on
	// a trace workload, the scenario's or TracePath's: a trace's job
	// count is the trace's.
	Jobs int `json:"jobs,omitempty"`
	// TracePath overrides the scenario's workload with a recorded trace
	// (CSV, or JSON by extension), resolved against the process working
	// directory. See CaseStudy.Run.
	TracePath string `json:"trace_path,omitempty"`
	// Seed overrides the workload seed when set (pointer: seed 0 is a
	// legitimate override).
	Seed *int64 `json:"seed,omitempty"`
	// FleetSeed overrides the calibration snapshot seed when set.
	FleetSeed *int64 `json:"fleet_seed,omitempty"`
	// TrainSteps overrides the rlbase PPO training budget when > 0.
	TrainSteps int `json:"train_steps,omitempty"`
	// PPO overrides the full PPO trainer configuration when set —
	// mostly useful to shrink rollouts for smoke runs.
	PPO *rl.PPOConfig `json:"ppo,omitempty"`
}

// LoadSpec decodes and validates a Spec. Unknown fields and trailing
// content are errors: a typoed key or a merge-conflict leftover after
// the closing brace must not silently run a different experiment than
// the file appears to describe.
func LoadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("experiments: spec has trailing content after the JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecFile is LoadSpec from a path.
func LoadSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only spec file cannot lose data
	s, err := LoadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteJSON emits the spec as indented JSON, the round-trip inverse of
// LoadSpec.
func (s *Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Validate checks the spec without running anything: the scenario must
// be a built-in, every matrix must expand, every override must be
// sane, the total task count must stay within MaxTasks, and task IDs
// must be unique across the whole spec. A valid spec is executable by
// construction — Run re-derives the same expansions.
func (s *Spec) Validate() error {
	if _, err := s.CaseStudy(); err != nil {
		return err
	}
	if len(s.Matrices) == 0 {
		return fmt.Errorf("experiments: spec has no task matrices")
	}
	if s.Jobs < 0 {
		return fmt.Errorf("experiments: spec jobs override %d < 0", s.Jobs)
	}
	if s.TrainSteps < 0 {
		return fmt.Errorf("experiments: spec train_steps override %d < 0", s.TrainSteps)
	}
	if s.Replications < 0 {
		return fmt.Errorf("experiments: spec replications %d < 0", s.Replications)
	}
	if s.Replications > MaxReplications {
		return fmt.Errorf("experiments: spec replications %d > MaxReplications (%d)", s.Replications, MaxReplications)
	}
	matrices := s.runMatrices()
	total := 0
	for _, m := range matrices {
		total += m.taskCount()
	}
	if total > MaxTasks {
		return fmt.Errorf("experiments: spec expands to more than MaxTasks (%d) tasks", MaxTasks)
	}
	seen := make(map[string]bool, total)
	for i, m := range matrices {
		specs, err := m.specs()
		if err != nil {
			return wrapError(err, "spec matrix %d", i)
		}
		for _, sp := range specs {
			if seen[sp.id] {
				return fmt.Errorf("experiments: spec enumerates task %q twice", sp.id)
			}
			seen[sp.id] = true
		}
	}
	return nil
}

// MaxReplications bounds a bare replication count (the spec's
// Replications field and the CLI's -replications flag). Every replica
// is a full simulation, so a count this large is already days of
// compute; anything above it is a typo, and would otherwise reach an
// out-of-range allocation of the seed list.
const MaxReplications = 10000

// runMatrices returns the matrices Run actually executes: the declared
// matrices with Replications lowered onto each one that has no
// ReplicationSeeds of its own, as the seeds 1..Replications. Lowering
// onto the TaskMatrix (rather than looping in Run) keeps replication
// independent of the pool: every run expands the same seeded matrices.
func (s *Spec) runMatrices() []TaskMatrix {
	if s.Replications <= 0 {
		return s.Matrices
	}
	seeds := make([]int64, s.Replications)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	out := append([]TaskMatrix(nil), s.Matrices...)
	for i := range out {
		if len(out[i].ReplicationSeeds) == 0 {
			out[i].ReplicationSeeds = seeds
		}
	}
	return out
}

// Label names the run's manifest: Name when set, otherwise the
// resolved scenario joined with the matrix labels.
func (s *Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	scenario := s.Scenario
	if scenario == "" {
		scenario = "paper"
	}
	labels := make([]string, len(s.Matrices))
	for i, m := range s.Matrices {
		labels[i] = m.Label()
	}
	return scenario + ":" + strings.Join(labels, "+")
}

// CaseStudy materializes the spec: the scenario's fresh case study
// with the spec's overrides applied. A jobs override on the resolved
// workload's trace is an error. Each call returns an independent
// value.
func (s *Spec) CaseStudy() (*CaseStudy, error) {
	cs, err := NewScenario(s.Scenario)
	if err != nil {
		return nil, err
	}
	if s.TracePath != "" {
		cs.replay(s.TracePath)
	}
	if s.Jobs > 0 {
		if trace := cs.tracePath(); trace != "" {
			return nil, fmt.Errorf("experiments: a jobs override conflicts with the trace workload %s; a trace fixes its own job count", trace)
		}
		cs.Workload.Synthetic.N = s.Jobs
	}
	if s.Seed != nil {
		cs.Workload.Synthetic.Seed = *s.Seed
	}
	if s.FleetSeed != nil {
		cs.FleetSeed = *s.FleetSeed
	}
	if s.TrainSteps > 0 {
		cs.TrainSteps = s.TrainSteps
	}
	if s.PPO != nil {
		cs.PPO = *s.PPO
	}
	return cs, nil
}

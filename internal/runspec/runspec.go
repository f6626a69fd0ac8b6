// Package runspec describes one simulation run as data — the paper's
// Configurations Layer (§3): the fleet, the workload, the allocation
// policy and the model constants — and assembles it. qcloudsim's flags,
// its -config file, every experiments scenario and the config-driven
// example fill the one struct, Run, and build it through Run.Build.
package runspec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// Run is one simulation run. Its JSON form is the qcloudsim -config
// schema (docs/operations.md): devices decode into device.Spec, the
// synthetic workload into job.SyntheticConfig and the model block into
// core.Config. Preset and FleetSeed have no key: the qcloudsim flags
// and the experiments scenarios set them.
type Run struct {
	// Devices describes the fleet device by device; nil means the
	// fleet preset Preset (device.PresetFleet) with its calibration
	// drawn from FleetSeed.
	Devices   []device.Spec `json:"devices"`
	Preset    string        `json:"-"`
	FleetSeed int64         `json:"-"`
	// Workload is a batch run's job list; nil for a -serve broker,
	// which ingests its jobs from the stream.
	Workload *Workload `json:"workload,omitempty"`
	// Policy names one of the allocation policies in policy.Names().
	Policy string `json:"policy"`
	// RLModelPath locates the trained model of a model-requiring policy
	// (rlbase); RLSeed seeds its deployment-time sampling.
	RLModelPath string      `json:"rl_model_path,omitempty"`
	RLSeed      int64       `json:"rl_seed,omitempty"`
	Model       core.Config `json:"model"`
}

// Workload is where a batch run's jobs come from.
type Workload struct {
	// Source is "synthetic", "csv", or "json".
	Source string `json:"source"`
	// Path locates the workload file for csv/json sources.
	Path      string               `json:"path,omitempty"`
	Synthetic *job.SyntheticConfig `json:"synthetic,omitempty"`
}

// FileSource is the source that reads the workload file at path by
// its extension: "json" for ".json" (any case), "csv" for anything
// else.
func FileSource(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return "json"
	}
	return "csv"
}

// Load decodes and checks a -config document for a batch run, or for a
// -serve broker when serve is set. Unknown fields and trailing content
// are errors, and a synthetic workload's t2_factor of 0 means 0.25. It
// reads no other file and builds no device: the fleet's coupling maps
// are built once, by Build, and the model constants are checked where
// the simulation is assembled.
func Load(r io.Reader, serve bool) (*Run, error) {
	var c Run
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("config: trailing content after the JSON document")
	}
	if err := device.ValidateFleet(c.Devices); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if serve {
		if c.Workload != nil {
			return nil, fmt.Errorf("config: -serve ingests jobs from the stream; drop the workload block")
		}
		for _, d := range c.Devices {
			// A strict device on a sparse topology can fail a reservation
			// its policy thought feasible, which panics the broker.
			if d.StrictTopology && d.Topology != "complete" {
				return nil, fmt.Errorf("config: device %q: -serve refuses strict_topology on a %q topology until the ROADMAP item %q lands",
					d.Name, d.Topology, "A broker that no policy or topology can panic")
			}
		}
	} else if w := c.Workload; w == nil {
		return nil, fmt.Errorf("config: a batch run needs a workload block")
	} else {
		switch w.Source {
		case "synthetic":
			if w.Synthetic == nil {
				return nil, fmt.Errorf("config: synthetic workload needs a synthetic block")
			}
			if w.Synthetic.T2Factor == 0 {
				w.Synthetic.T2Factor = 0.25
			}
		case "csv", "json":
			if w.Path == "" {
				return nil, fmt.Errorf("config: %s workload needs a path", w.Source)
			}
		default:
			return nil, fmt.Errorf("config: unknown workload source %q", w.Source)
		}
	}
	if !policy.Registered(c.Policy) {
		return nil, fmt.Errorf("config: unknown policy %q (registered: %v)", c.Policy, policy.Names())
	}
	if policy.NeedsModel(c.Policy) && c.RLModelPath == "" {
		return nil, fmt.Errorf("config: %s policy needs rl_model_path", c.Policy)
	}
	return &c, nil
}

// LoadFile is Load from a path. Relative workload and model paths
// resolve against the file's directory.
func LoadFile(path string, serve bool) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only config file cannot lose data
	c, err := Load(f, serve)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	if c.RLModelPath != "" {
		c.RLModelPath = resolve(dir, c.RLModelPath)
	}
	if c.Workload != nil && c.Workload.Path != "" {
		c.Workload.Path = resolve(dir, c.Workload.Path)
	}
	return c, nil
}

// resolve joins a relative path onto dir.
func resolve(dir, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(dir, path)
}

// Jobs generates or reads the workload; a run without one has no jobs.
// The source names the file format, whatever the extension.
func (r *Run) Jobs() ([]*job.QJob, error) {
	w := r.Workload
	if w == nil {
		return nil, nil
	}
	decode := job.LoadCSV
	switch w.Source {
	case "synthetic":
		return job.Synthetic(*w.Synthetic)
	case "json":
		decode = job.LoadJSON
	}
	f, err := os.Open(w.Path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only workload file cannot lose data
	return decode(f)
}

// BuildFleet builds the run's fleet on env: Devices, or the preset.
func (r *Run) BuildFleet(env *sim.Environment) ([]*device.Device, error) {
	if r.Devices != nil {
		return device.BuildFleet(env, r.Devices)
	}
	return device.PresetFleet(r.Preset, env, r.FleetSeed)
}

// Build assembles the run on env: the fleet, the allocation policy
// (through policy.New, with the model's Eq. 8 penalty for fidelity
// predictions) and the workload's jobs. p carries the deployment the
// run does not describe: a model-requiring policy deploys p.Model, or
// the trained policy at RLModelPath when p.Model is nil, honouring
// p.Deterministic. Build refuses a fleet the policy cannot schedule
// before any job runs.
func (r *Run) Build(env *sim.Environment, p policy.Params) ([]*device.Device, policy.Policy, []*job.QJob, error) {
	fleet, err := r.BuildFleet(env)
	if err != nil {
		return nil, nil, nil, err
	}
	p.Seed, p.Phi = r.RLSeed, r.Model.Phi
	if policy.NeedsModel(r.Policy) && p.Model == nil {
		trained, err := rlsched.LoadPolicy(r.RLModelPath)
		if err != nil {
			return nil, nil, nil, err
		}
		p.Model = rlsched.Deploy(trained)
	}
	pol, err := policy.New(r.Policy, p)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, ok := pol.(policy.Oracle); ok && len(fleet) > policy.OracleMaxDevices {
		return nil, nil, nil, fmt.Errorf("policy oracle enumerates device subsets and supports at most %d devices; the fleet has %d",
			policy.OracleMaxDevices, len(fleet))
	}
	jobs, err := r.Jobs()
	if err != nil {
		return nil, nil, nil, err
	}
	return fleet, pol, jobs, nil
}

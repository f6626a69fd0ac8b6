package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
)

// configFile is the schema of a -config file: the paper's
// Configurations Layer (§3), which describes the devices, workload,
// policy and model constants of one run as data. Devices decode into
// device.Spec, the synthetic workload into job.SyntheticConfig and the
// model block into core.Config. A batch run needs the workload block; a
// -serve broker ingests its jobs from the stream and refuses one.
// docs/operations.md documents the schema.
type configFile struct {
	Devices  []device.Spec `json:"devices"`
	Workload *struct {
		// Source is "synthetic", "csv", or "json".
		Source string `json:"source"`
		// Path locates the workload file for csv/json sources.
		Path      string               `json:"path,omitempty"`
		Synthetic *job.SyntheticConfig `json:"synthetic,omitempty"`
	} `json:"workload,omitempty"`
	// Policy names one of the allocation policies in policy.Names().
	Policy string `json:"policy"`
	// RLModelPath locates the trained model of a model-requiring policy
	// (rlbase); RLSeed seeds its deployment-time sampling.
	RLModelPath string      `json:"rl_model_path,omitempty"`
	RLSeed      int64       `json:"rl_seed,omitempty"`
	Model       core.Config `json:"model"`
}

// loadConfig decodes and checks a -config file for a batch run, or for
// a -serve broker when serve is set. Unknown fields and trailing
// content are errors. It reads no other file and builds no device: the
// fleet's coupling maps are built once, by BuildFleet, and the model
// constants are checked where the simulation is assembled.
func loadConfig(r io.Reader, serve bool) (*configFile, error) {
	var c configFile
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

// loadConfigFile loads the -config file at path into a run, without a
// workload under -serve. Relative workload and model paths resolve
// against the file's directory.
func loadConfigFile(path string, serve bool) (batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return batch{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only config file cannot lose data
	c, err := loadConfig(f, serve)
	if err != nil {
		return batch{}, err
	}
	dir := filepath.Dir(path)
	b := batch{cloud: cloud{devices: c.Devices, policy: c.Policy, rlSeed: c.RLSeed, cfg: c.Model}}
	if c.RLModelPath != "" {
		b.rlModel = resolve(dir, c.RLModelPath)
	}
	if c.Workload == nil {
		return b, nil
	}
	switch c.Workload.Source {
	case "synthetic":
		sc := *c.Workload.Synthetic
		if sc.T2Factor == 0 {
			sc.T2Factor = 0.25
		}
		b.workload = func() ([]*job.QJob, error) { return job.Synthetic(sc) }
	case "csv":
		b.workload = readWorkload(resolve(dir, c.Workload.Path), job.LoadCSV)
	case "json":
		b.workload = readWorkload(resolve(dir, c.Workload.Path), job.LoadJSON)
	}
	return b, nil
}

// resolve joins a relative path onto dir.
func resolve(dir, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(dir, path)
}

// readWorkload returns a workload that decodes the file at path with
// decode: the -config source names the format, whatever the extension.
func readWorkload(path string, decode func(io.Reader) ([]*job.QJob, error)) func() ([]*job.QJob, error) {
	return func() ([]*job.QJob, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("config: workload: %w", err)
		}
		defer f.Close() //lint:allow errlint close of a read-only workload file cannot lose data
		return decode(f)
	}
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// exampleSpec returns the config-driven example's -config file.
func exampleSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../examples/configdriven/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Every malformed or inconsistent -config file is refused before
// anything runs: qcloudsim exits non-zero and writes no export.
func TestConfigRejected(t *testing.T) {
	valid := exampleSpec(t)
	mutate := func(from, to string) string {
		out := strings.Replace(valid, from, to, 1)
		if out == valid {
			t.Fatalf("mutation %q not applied", from)
		}
		return out
	}
	cases := []struct {
		name, spec, wantErr string
	}{
		{"no devices", `{"devices": []}`, "no devices"},
		{"unnamed device", mutate(`"name": "eagle_fast"`, `"name": ""`), "has no name"},
		{"duplicate device", mutate(`"name": "lattice_clean"`, `"name": "eagle_fast"`), "duplicate device"},
		{"zero qubits", mutate(`"num_qubits": 127`, `"num_qubits": 0`), "qubits"},
		{"zero clops", mutate(`"clops": 45000`, `"clops": 0`), "CLOPS"},
		{"grid size mismatch", mutate(`"grid:10x10"`, `"grid:9x10"`), "grid"},
		{"malformed grid", mutate(`"grid:10x10"`, `"grid:100"`), "grid"},
		{"unknown topology", mutate(`"topology": "line"`, `"topology": "donut"`), "unknown topology"},
		{"zero median", mutate(`"median_readout": 0.014`, `"median_readout": 0`), "medians must be positive"},
		{"unknown policy", mutate(`"policy": "fidelity"`, `"policy": "warp"`), "unknown policy"},
		{"rlbase without model", mutate(`"policy": "fidelity"`, `"policy": "rlbase"`), "rl_model_path"},
		{"csv without path", mutate(`"source": "synthetic"`, `"source": "csv"`), "needs a path"},
		{"unknown source", mutate(`"source": "synthetic"`, `"source": "kafka"`), "unknown workload source"},
		{"synthetic without block", `{"devices": [{"name": "a", "num_qubits": 27, "clops": 1000,
		  "calibration": {"median_readout": 0.01, "median_1q": 2e-4, "median_2q": 7e-3, "seed": 1}}],
		  "workload": {"source": "synthetic"}, "policy": "speed",
		  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}}`, "synthetic block"},
		{"phi above one", mutate(`"phi": 0.95`, `"phi": 1.5`), "1.5"},
		{"zero m", mutate(`"m": 10`, `"m": 0`), "M=0"},
		{"negative lambda", mutate(`"lambda": 0.02`, `"lambda": -1`), "ambda"},
		{"not json", `not json`, "invalid character"},
		{"unknown field", mutate(`"model"`, `"extra_field": 1, "model"`), "unknown field"},
		{"unknown model field", mutate(`"lambda": 0.02`, `"lambda": 0.02, "mu": 3`), "unknown field"},
		{"missing workload file", mutate(`{"source": "synthetic",`, `{"source": "csv", "path": "absent.csv",`), "absent.csv"},
		{"missing rl model", mutate(`"policy": "fidelity"`, `"policy": "rlbase", "rl_model_path": "absent.json"`), "absent.json"},
		{"oracle over 17 devices", manyDeviceSpec(17, true), "at most 16 devices"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(c.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := runQCloudSim(t, dir, "-config", "spec.json", "-export", "records.csv")
			if err == nil {
				t.Fatalf("invalid -config accepted:\n%s", out)
			}
			if !strings.Contains(out, c.wantErr) {
				t.Fatalf("error output %q does not mention %q", out, c.wantErr)
			}
			if _, err := os.Stat(filepath.Join(dir, "records.csv")); !os.IsNotExist(err) {
				t.Fatalf("rejected -config still wrote an export (stat: %v)", err)
			}
		})
	}
	t.Run("missing file", func(t *testing.T) {
		if out, err := runQCloudSim(t, t.TempDir(), "-config", "absent.json"); err == nil {
			t.Fatalf("missing -config file accepted:\n%s", out)
		}
	})
}

func TestLoadValidSpec(t *testing.T) {
	c, err := runspec.Load(strings.NewReader(exampleSpec(t)), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Devices) != 3 || c.Devices[1].Topology != "grid:10x10" || c.Policy != "fidelity" {
		t.Fatalf("config = %+v", c)
	}
	if s := c.Workload.Synthetic; s == nil || s.N != 40 || s.MinQubits != 130 || s.MeanInterarrival != 60 || s.Seed != 4 {
		t.Fatalf("synthetic block = %+v", s)
	}
	if c.Model.M != 10 || c.Model.K != 10 || c.Model.Phi != 0.95 || c.Model.Lambda != 0.02 || c.Model.Backfill || c.Model.Drift.Enabled() {
		t.Fatalf("model = %+v", c.Model)
	}
}

// The model block is a core.Config, so it can also enable drift.
func TestLoadConfigModelDrift(t *testing.T) {
	spec := strings.Replace(exampleSpec(t), `"lambda": 0.02}`,
		`"lambda": 0.02, "backfill": true, "drift": {"interval_s": 900, "rel": 0.2, "seed": 5}}`, 1)
	c, err := runspec.Load(strings.NewReader(spec), false)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Model.Backfill || c.Model.Drift.IntervalS != 900 || c.Model.Drift.Rel != 0.2 || c.Model.Drift.Seed != 5 {
		t.Fatalf("model = %+v", c.Model)
	}
	// A negative interval is refused when the simulation is assembled.
	dir := t.TempDir()
	spec = strings.Replace(spec, `"interval_s": 900`, `"interval_s": -900`, 1)
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runQCloudSim(t, dir, "-config", "spec.json"); err == nil || !strings.Contains(out, "drift interval") {
		t.Fatalf("negative drift interval: err %v, output:\n%s", err, out)
	}
}

// A -config file is one JSON document: a second document, or any other
// trailing content, is refused rather than silently ignored.
func TestLoadConfigRejectsTrailingContent(t *testing.T) {
	valid := exampleSpec(t)
	for _, tail := range []string{"{}", `{"policy": "speed"}`, "x", "]"} {
		if _, err := runspec.Load(strings.NewReader(valid+tail), false); err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("trailing %q: error %v", tail, err)
		}
	}
	if _, err := runspec.Load(strings.NewReader(valid+"\n\t \n"), false); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

func TestCSVWorkloadSourceWithRelativePath(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.txt"), []byte("j1,150,10,50000,0\nj2,140,8,20000,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := strings.Replace(exampleSpec(t), `"source": "synthetic"`, `"source": "csv", "path": "jobs.txt"`, 1)
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := runspec.LoadFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := b.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "j1" {
		t.Fatalf("jobs = %v", jobs)
	}
	// The source names the format, whatever the extension.
	spec = strings.Replace(spec, `"source": "csv"`, `"source": "json"`, 1)
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err = runspec.LoadFile(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Jobs(); err == nil {
		t.Fatal("CSV rows decoded as a json source")
	}
	// A missing workload file errors cleanly.
	if err := os.Remove(filepath.Join(dir, "jobs.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Jobs(); err == nil {
		t.Fatal("missing workload file accepted")
	}
}

func TestLoadConfigFile(t *testing.T) {
	if _, err := runspec.LoadFile("../../examples/configdriven/spec.json", false); err != nil {
		t.Fatal(err)
	}
	if _, err := runspec.LoadFile(filepath.Join(t.TempDir(), "missing.json"), false); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Every registered policy builds by name, on the flag path and the
// -config path alike; rlbase loads its model.
func TestBuildPolicyVariants(t *testing.T) {
	newPolicy := func(name, rlModel string, rlSeed int64, phi float64) (policy.Policy, error) {
		r := runspec.Run{Policy: name, RLModelPath: rlModel, RLSeed: rlSeed, Model: core.Config{Phi: phi}}
		_, pol, _, err := r.Build(sim.NewEnvironment(), policy.Params{})
		return pol, err
	}
	for _, name := range []string{"speed", "fair", "fidelity", "speed-proportional", "fair-proportional", "oracle"} {
		p, err := newPolicy(name, "", 0, 0.9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q built as %q", name, p.Name())
		}
	}
	dir := t.TempDir()
	if p, err := newPolicy("rlbase", untrainedModel(t, dir), 11, 0.95); err != nil || p.Name() != "rlbase" {
		t.Fatalf("rlbase: %v, %v", p, err)
	}
	if _, err := newPolicy("rlbase", filepath.Join(dir, "missing.json"), 11, 0.95); err == nil {
		t.Fatal("missing RL model accepted")
	}
	if _, err := newPolicy("warp", "", 0, 0.95); err == nil {
		t.Fatal("unknown policy built")
	}
}

// -policy resolves through the registry, so a registered policy such
// as oracle runs from the flags as it does from a -config file.
func TestPolicyFlagResolvesRegistry(t *testing.T) {
	out, err := runQCloudSim(t, t.TempDir(), "-policy", "oracle", "-n", "20")
	if err != nil || !strings.Contains(out, "policy      oracle") || !strings.Contains(out, "jobs        20") {
		t.Fatalf("-policy oracle: %v\n%s", err, out)
	}
}

// manyDeviceSpec is a -config document for a fleet of n small devices
// under the oracle policy, with a workload block for batch runs.
func manyDeviceSpec(n int, withWorkload bool) string {
	devices := make([]string, n)
	for i := range devices {
		devices[i] = fmt.Sprintf(`{"name": "qpu_%02d", "num_qubits": 27, "clops": 30000,
		  "calibration": {"median_readout": 0.011, "median_1q": 2.3e-4, "median_2q": 7.5e-3, "seed": %d}}`, i, i+1)
	}
	s := `{"devices": [` + strings.Join(devices, ", ") + `], "policy": "oracle",
	  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}`
	if withWorkload {
		s += `, "workload": {"source": "synthetic", "synthetic": {"n": 5, "min_qubits": 10, "max_qubits": 40,
		  "min_depth": 5, "max_depth": 20, "min_shots": 1000, "max_shots": 2000,
		  "t2_factor": 0.25, "mean_interarrival": 60, "seed": 4}}`
	}
	return s + "}"
}

// Oracle's fleet limit is inclusive: the batch and serve refusals of
// one device more are cases of TestConfigRejected and
// TestServeConfigRefusals.
func TestOracleFleetAtLimitBuilds(t *testing.T) {
	c, err := runspec.Load(strings.NewReader(manyDeviceSpec(policy.OracleMaxDevices, true)), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Build(sim.NewEnvironment(), policy.Params{}); err != nil {
		t.Fatalf("oracle over %d devices refused: %v", policy.OracleMaxDevices, err)
	}
}

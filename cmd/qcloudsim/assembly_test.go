package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/runspec"
)

// qcloudsimExport runs qcloudsim with args plus -export in a fresh
// directory, feeding it stdin, and returns the exported records CSV.
func qcloudsimExport(t *testing.T, stdin []byte, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, append(args, "-export", "records.csv")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
	cmd.Stdin = bytes.NewReader(stdin)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("qcloudsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "records.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ndjson encodes a workload as the broker's job stream.
func ndjson(t *testing.T, jobs []*job.QJob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := job.WriteNDJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A drifting run on the flag path exports the same records from a
// batch run and from -serve fed the workload as a stream.
func TestServeDriftMatchesBatch(t *testing.T) {
	jobsPath := absPath(t, "testdata/jobs.json")
	jobs, err := (&runspec.Run{Workload: &runspec.Workload{Source: "json", Path: jobsPath}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	model := []string{"-policy", "fidelity", "-drift-interval", "1800", "-drift-magnitude", "0.3", "-seed", "5"}
	batch := qcloudsimExport(t, nil, append([]string{"-jobs", jobsPath}, model...)...)
	served := qcloudsimExport(t, ndjson(t, jobs), append([]string{"-serve"}, model...)...)
	if !bytes.Equal(batch, served) {
		t.Fatalf("served records diverge from batch:\nbatch:\n%s\nserved:\n%s", batch, served)
	}
	if static := qcloudsimExport(t, nil, "-jobs", jobsPath, "-policy", "fidelity"); bytes.Equal(static, batch) {
		t.Fatal("drift left the records unchanged: the comparison proves nothing")
	}
}

// Every committed -config file runs the same under -serve, with its
// workload block removed and the workload fed as a stream, as in batch.
func TestServeConfigMatchesBatch(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../examples/configdriven/spec.json", rlbaseConfig(t))
	for _, path := range paths {
		if filepath.Base(path) == "jobs.json" {
			continue // a workload, not a -config file
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			path := absPath(t, path)
			b, err := runspec.LoadFile(path, false)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := b.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			batch := qcloudsimExport(t, nil, "-config", path)
			served := qcloudsimExport(t, ndjson(t, jobs), "-serve", "-config", withoutWorkload(t, path))
			if !bytes.Equal(batch, served) {
				t.Fatalf("served records diverge from batch:\nbatch:\n%s\nserved:\n%s", batch, served)
			}
		})
	}
}

// withoutWorkload copies the -config file at path into a temporary
// directory minus its workload block, with a relative rl_model_path
// resolved against the original's directory, and returns the copy's
// path.
func withoutWorkload(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	delete(spec, "workload")
	if _, ok := spec["rl_model_path"]; ok {
		r, err := runspec.LoadFile(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if spec["rl_model_path"], err = json.Marshal(r.RLModelPath); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	stripped := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(stripped, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return stripped
}

// Under -serve a -config file describes the cloud only, and it may not
// hold a strict device on a sparse topology: the reproducing fleet of
// the ROADMAP's panic item fails at startup instead of mid-stream.
func TestServeConfigRefusals(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N, cfg.MinQubits, cfg.MaxQubits = 200, 10, 140
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	device := func(name string) string {
		return `{"name": "` + name + `", "num_qubits": 80, "clops": 90000, "topology": "grid:8x10", "strict_topology": true,
		  "calibration": {"median_readout": 0.011, "median_1q": 2.3e-4, "median_2q": 7.5e-3, "seed": 11}}`
	}
	cases := []struct{ name, spec, wantErr string }{
		{"sparse strict topology", `{"devices": [` + device("grid_a") + `, ` + device("grid_b") + `],
		  "policy": "fair", "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}}`,
			`"A broker that no policy or topology can panic"`},
		{"workload block", exampleSpec(t), "drop the workload block"},
		{"oracle over 17 devices", manyDeviceSpec(17, false), "at most 16 devices"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(c.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, "-serve", "-config", "spec.json")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
			cmd.Stdin = bytes.NewReader(ndjson(t, jobs))
			out, err := cmd.CombinedOutput()
			if err == nil || !strings.Contains(string(out), c.wantErr) || strings.Contains(string(out), "panic: ") {
				t.Fatalf("-serve -config: err %v, want a startup error naming %s:\n%s", err, c.wantErr, out)
			}
		})
	}
	// A batch run still needs its workload.
	if _, err := runspec.Load(strings.NewReader(`{"devices": [`+device("grid_a")+`], "policy": "fair",
	  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}}`), false); err == nil || !strings.Contains(err.Error(), "workload block") {
		t.Fatalf("batch config without a workload: %v", err)
	}
}

// A drifting serve run split at a quiescent checkpoint and resumed in a
// new broker, fed the whole stream, continues the uninterrupted run
// exactly: the drift steps replayed from the checkpoint rebuild the
// calibration the tail sees, and the resumed run appends the tail's
// rows to the first segment's export.
func TestServeDriftCheckpointResume(t *testing.T) {
	jobs := spacedJobs(t, 20)
	dir := t.TempDir()
	drifting := speedCloud()
	drifting.Policy = "fidelity"
	drifting.Model.Drift = core.DriftConfig{IntervalS: 300, Rel: 0.3, Seed: 5}
	opts := serveOptions{run: drifting, window: 64, export: filepath.Join(dir, "full.csv")}
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, jobs)), io.Discard, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	const split = 10
	opts.export = filepath.Join(dir, "split.csv")
	opts.checkpointPath = filepath.Join(dir, "broker.ckpt")
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, jobs[:split])), io.Discard, io.Discard); err != nil {
		t.Fatalf("segment 1: %v", err)
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.DriftSteps == 0 || cp.SimNow >= jobs[split].ArrivalTime || cp.Ingested != split || cp.ExportLen == 0 {
		t.Fatalf("split checkpoint: %d drift steps at %g (next arrival %g), %d lines, export_len %d",
			cp.DriftSteps, cp.SimNow, jobs[split].ArrivalTime, cp.Ingested, cp.ExportLen)
	}
	opts.resume = true
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, jobs)), io.Discard, io.Discard); err != nil {
		t.Fatalf("segment 2: %v", err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "full.csv"))
	if err != nil {
		t.Fatal(err)
	}
	split2, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, split2) {
		t.Fatalf("resumed export diverges from the uninterrupted run's:\nwant:\n%s\ngot:\n%s", full, split2)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/rl"
	"repro/internal/rlsched"
)

// TestMain lets a test re-exec this binary as qcloudsim itself: with
// QCLOUDSIM_TEST_MAIN=1 the process runs main on its arguments instead
// of the tests, so a test drives the real flag parsing and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("QCLOUDSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQCloudSim runs qcloudsim with args in dir and returns its combined
// output and exit error.
func runQCloudSim(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// exportDigest runs qcloudsim with args plus -export and returns the
// SHA-256 of the exported per-job records CSV.
func exportDigest(t *testing.T, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	out, err := runQCloudSim(t, dir, append(args, "-export", "records.csv")...)
	if err != nil {
		t.Fatalf("qcloudsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "records.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// absPath resolves a path relative to this package's directory.
func absPath(t *testing.T, rel string) string {
	t.Helper()
	p, err := filepath.Abs(rel)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// untrainedModel saves an untrained rlbase network (the one the core
// package's pinned rlbase digest uses) and returns its path.
func untrainedModel(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "model.json")
	untrained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	if err := rlsched.SavePolicy(path, untrained); err != nil {
		t.Fatal(err)
	}
	return path
}

// rlbaseConfig writes a five-device -config file whose rlbase model
// sits beside it under a relative rl_model_path, and returns its path.
func rlbaseConfig(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	untrainedModel(t, dir)
	var devices []string
	for i := 0; i < rlsched.NumDevices; i++ {
		devices = append(devices, fmt.Sprintf(`{"name": "qpu_%d", "num_qubits": 127, "clops": %d,
		 "calibration": {"median_readout": 0.0%d, "median_1q": 2.%de-4, "median_2q": %de-3, "seed": %d}}`,
			i, 30000+40000*i, 10+i, i, 6+i, 30+i))
	}
	spec := `{"devices": [` + strings.Join(devices, ",\n") + `],
	  "workload": {"source": "synthetic",
	               "synthetic": {"n": 30, "min_qubits": 130, "max_qubits": 250,
	                             "min_depth": 5, "max_depth": 20,
	                             "min_shots": 10000, "max_shots": 100000,
	                             "t2_factor": 0.3, "mean_interarrival": 45, "seed": 9}},
	  "policy": "rlbase", "rl_model_path": "model.json", "rl_seed": 11,
	  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}}`
	path := filepath.Join(dir, "rlbase.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The batch exports of qcloudsim are pinned by digest, on both the flag
// path and the -config path. Update a digest only for an intended
// change of simulated results.
func TestBatchExportPinned(t *testing.T) {
	model := untrainedModel(t, t.TempDir())
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"config-example", []string{"-config", absPath(t, "../../examples/configdriven/spec.json")},
			"c428d9604c3d700f40a1bf141044e31db9e41af23fe60e62691d0dae98f85cfb"},
		{"config-csv-topologies", []string{"-config", absPath(t, "testdata/topologies.json")},
			"b6520796b79c8c64f96d41468033bd7f94f13db3055c5a8a875467b959400ace"},
		{"config-json-oracle", []string{"-config", absPath(t, "testdata/oracle-json.json")},
			"c8db1a63ebcc43104bf6214944a7c060a4aa82c9ed161965c927ad5ce2d39e7c"},
		{"config-rlbase", []string{"-config", rlbaseConfig(t)},
			"528202f362f62f3c4ac9d03fae8b9eaab6553899d316b4c6eeecb746a2bd26f9"},
		{"flags-fair", []string{"-policy", "fair", "-n", "40"},
			"02a7b5bc2067f0de43d5aaf7a8c6cc39a003726b628fdb0bd2eeb25cab4a0d30"},
		{"flags-fidelity-backfill", []string{"-policy", "fidelity", "-backfill", "-n", "60", "-interarrival", "2"},
			"86664ae6b58a47270991ad677567768ac7b4d26d34f291027d83b38ac519042a"},
		{"flags-speed-drift", []string{"-policy", "speed", "-n", "40", "-drift-interval", "1800", "-drift-magnitude", "0.2"},
			"029e866f4c105e257cfa42a27d908601d03a5bdaa70b27b862ab097331e21446"},
		{"flags-rlbase", []string{"-policy", "rlbase", "-rlmodel", model, "-rlseed", "11", "-n", "40"},
			"2630c11caa0da5497de7bdb78690275d319ff1718157cf07cd56ce9c9f4772cd"},
		{"flags-jobs-csv", []string{"-policy", "speed", "-jobs", absPath(t, "testdata/jobs.csv"), "-fleet-seed", "9"},
			"e512b79a85bf5ddf767d35646fd641c0b26b6b8dfbf9bd31ca6ded98dabf82f9"},
		{"flags-jobs-json", []string{"-policy", "fidelity", "-jobs", absPath(t, "testdata/jobs.json"), "-m", "12", "-phi", "0.9"},
			"0b9057509ff5d8c491e5b4dcea08c601454d2b878ec2681b7fe4289e87513eed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exportDigest(t, c.args...); got != c.want {
				t.Fatalf("export digest %s, pinned %s", got, c.want)
			}
		})
	}
}

// servedStream runs qcloudsim -serve with args over the NDJSON stream
// in and returns its stdout: the lifecycle stream.
func servedStream(t *testing.T, in []byte, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-serve"}, args...)...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "QCLOUDSIM_TEST_MAIN=1")
	cmd.Stdin = bytes.NewReader(in)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("qcloudsim -serve %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// lifecycleWorkload is a two-tenant NDJSON stream whose job IDs need
// every kind of JSON escaping the lifecycle encoder meets: quotes,
// HTML-sensitive bytes, non-ASCII, and U+2028.
func lifecycleWorkload(t *testing.T) []byte {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 80
	cfg.Seed = 13
	cfg.MeanInterarrival = 150
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{`q"uote`, "a<b>", "r&d", "caf\u00e9", "line\u2028sep", `back\slash`, "tab\there"}
	for i, j := range jobs {
		if i%5 == 0 {
			j.ID = fmt.Sprintf("%s-%d", odd[(i/5)%len(odd)], i)
		}
		j.Tenant = []string{"alpha", "beta"}[i%2]
	}
	var buf bytes.Buffer
	if err := job.WriteNDJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The -serve lifecycle stream is pinned by digest: shed admission with
// a short queue (so drop lines appear), two tenants, calibration drift,
// and job IDs that need escaping. Update the digest only for an
// intended change of the stream's bytes.
func TestServeLifecyclePinned(t *testing.T) {
	out := servedStream(t, lifecycleWorkload(t), "-policy", "fair",
		"-admit-policy", "shed", "-admit-max-queue", "3",
		"-drift-interval", "600", "-drift-magnitude", "0.3", "-seed", "5")
	for _, ev := range []string{"arrival", "start", "finish", "drop"} {
		if !bytes.Contains(out, []byte(`"event":"`+ev+`"`)) {
			t.Fatalf("no %s line in the lifecycle stream:\n%s", ev, out)
		}
	}
	sum := sha256.Sum256(out)
	const want = "4462732a62dab229d9a1b41c36f83011d7a9ef7001f9432ddd2b3306982f6987"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("lifecycle digest %s, pinned %s (%d bytes)", got, want, len(out))
	}
}

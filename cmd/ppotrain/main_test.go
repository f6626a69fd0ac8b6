package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportsTrainedTimesteps: PPO trains whole 2048-step rollouts, so
// -timesteps 1 trains 2048 steps, and the report says so.
func TestReportsTrainedTimesteps(t *testing.T) {
	out := filepath.Join(t.TempDir(), "policy.json")
	var stdout strings.Builder
	if err := run([]string{"-timesteps", "1", "-q", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if want := "trained 2048 timesteps; policy written to " + out + "\n"; stdout.String() != want {
		t.Fatalf("stdout = %q, want %q", stdout.String(), want)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("no model written: %v", err)
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a
// non-empty pprof file, and a profile path naming a directory is
// refused before any training.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	model := filepath.Join(dir, "policy.json")
	if err := run([]string{"-timesteps", "1", "-q", "-out", model, "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
		out := filepath.Join(dir, "refused.json")
		err := run([]string{"-timesteps", "1", "-q", "-out", out, flagName, dir}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), flagName) || !strings.Contains(err.Error(), "is a directory") {
			t.Errorf("%s %s: error %v, want one naming the flag and the directory", flagName, dir, err)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s %s: a model was written despite the refused flag", flagName, dir)
		}
	}
}

// TestPinnedModel pins the bytes of the model ppotrain trains with
// -timesteps 2048 -seed 1. Any change to the PPO arithmetic or to the
// nn kernels' per-entry accumulation order moves this digest.
func TestPinnedModel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "policy.json")
	if err := run([]string{"-timesteps", "2048", "-seed", "1", "-q", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ed2eacc4745e02db8021267ba0ce6654707c86cc5170603c164070643ed5e62f"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("model sha256 = %s, want %s", got, want)
	}
}

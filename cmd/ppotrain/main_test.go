package main

import (
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

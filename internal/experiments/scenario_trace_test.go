package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/records"
)

// writeTrace generates a small synthetic workload and commits it to a
// temp CSV, returning the path and the jobs it holds. Package tests run
// with the package directory as cwd, so the scenario's default
// repo-root-relative trace path does not resolve here — every test
// replays its own file.
func writeTrace(t *testing.T, n int) (string, []*job.QJob) {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 42
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.WriteCSV(f, jobs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, jobs
}

func TestTraceReplayScenarioRegistered(t *testing.T) {
	cs, err := NewScenario("trace-replay")
	if err != nil {
		t.Fatal(err)
	}
	if cs.tracePath() != "specs/trace-smoke.csv" || cs.Workload.Source != "csv" {
		t.Fatalf("default trace = %+v", cs.Workload)
	}
}

// TestTraceReplayJobs checks the replay path end to end: the loaded
// workload is exactly the trace (byte-for-byte job identity), the
// synthetic generator's knobs are inert, and the Eq. 1 constraint still
// gates what a trace may contain.
func TestTraceReplayJobs(t *testing.T) {
	path, want := writeTrace(t, 12)
	cs := Default()
	cs.replay(path)

	jobs, err := cs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, trace holds %d", len(jobs), len(want))
	}
	for i := range jobs {
		if jobs[i].ID != want[i].ID || jobs[i].NumQubits != want[i].NumQubits ||
			jobs[i].ArrivalTime != want[i].ArrivalTime {
			t.Fatalf("job %d differs from trace: %+v vs %+v", i, jobs[i], want[i])
		}
	}

	// The synthetic knobs must be dead: mutating the workload seed and
	// size cannot change what a trace replays.
	cs.Workload.Synthetic.Seed = 999
	cs.Workload.Synthetic.N = 3
	again, err := cs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Fatalf("workload knobs leaked into trace replay: %d jobs", len(again))
	}

	// A trace that violates Eq. 1 for the configured fleet is rejected,
	// same as a synthetic workload would be.
	bad := filepath.Join(t.TempDir(), "bad.csv")
	err = os.WriteFile(bad, []byte(
		"job_id,num_qubits,depth,num_shots,arrival_time,two_qubit_gates\n"+
			"huge,100000,5,1024,0,50\n"), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cs.replay(bad)
	if _, err := cs.Jobs(); err == nil {
		t.Fatal("oversized trace job passed the distributed constraint")
	}

	cs.replay(filepath.Join(t.TempDir(), "missing.csv"))
	if _, err := cs.Jobs(); err == nil {
		t.Fatal("missing trace file did not error")
	}
}

// TestTraceReplayExecutorEquivalence runs a trace spec on one worker
// and on a four-worker pool and requires identical manifests —
// the determinism gate CI runs against the committed smoke trace.
func TestTraceReplayExecutorEquivalence(t *testing.T) {
	path, want := writeTrace(t, 12)
	spec := Spec{
		Scenario:  "trace-replay",
		TracePath: path,
		Matrices:  []TaskMatrix{{Kind: "modes", Modes: []string{"speed", "fair"}}},
	}
	ctx := context.Background()
	seq, err := Run(ctx, spec, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ctx, spec, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := records.DiffManifests(seq, par, records.DiffOptions{}); !diff.Empty() {
		var sb strings.Builder
		if err := diff.Write(&sb); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("sequential vs parallel trace replays differ:\n%s", sb.String())
	}
	for i := range seq.Runs {
		r := &seq.Runs[i]
		if r.TracePath != path {
			t.Fatalf("row %q trace_path = %q, want %q", r.ID, r.TracePath, path)
		}
		if r.Jobs != len(want) {
			t.Fatalf("row %q reports %d jobs, trace holds %d", r.ID, r.Jobs, len(want))
		}
	}
}

// TestSpecTraceJobsConflict pins the validation rule: a trace fixes its
// own job count, so a jobs override on a trace workload is an error,
// whether the trace comes from trace_path or from the scenario.
func TestSpecTraceJobsConflict(t *testing.T) {
	cases := []struct {
		name, scenario, trace string
		jobs                  int
		ok                    bool
	}{
		{"trace_path and jobs", "trace-replay", "somewhere.csv", 10, false},
		{"trace_path on paper and jobs", "paper", "somewhere.csv", 10, false},
		{"trace-replay scenario and jobs", "trace-replay", "", 5, false},
		{"trace-replay scenario alone", "trace-replay", "", 0, true},
		{"paper and jobs", "paper", "", 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Scenario:  c.scenario,
				TracePath: c.trace,
				Jobs:      c.jobs,
				Matrices:  []TaskMatrix{{Kind: "modes", Modes: []string{"speed"}}},
			}
			err := spec.Validate()
			if c.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !c.ok && (err == nil || !strings.Contains(err.Error(), "a trace fixes its own job count")) {
				t.Fatalf("err = %v, want the jobs override refused", err)
			}
		})
	}
}

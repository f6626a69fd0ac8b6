package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/records"
)

// shrinkDrift shrinks the calibration-drift scenario to a test-sized
// workload. Exec times are ~20 simulated minutes per job, so even a
// 16-job run crosses several 3600s drift intervals.
func shrinkDrift(t *testing.T) *CaseStudy {
	t.Helper()
	cs, err := NewScenario("calibration-drift")
	if err != nil {
		t.Fatal(err)
	}
	cs.Workload.Synthetic.N = 16
	return cs
}

func TestCalibrationDriftScenarioRegistered(t *testing.T) {
	cs := shrinkDrift(t)
	if !cs.Model.Drift.Enabled() {
		t.Fatalf("scenario drift config not enabled: %+v", cs.Model.Drift)
	}
}

// TestCalibrationDriftChangesOutcome checks the drift process actually
// fires: the same workload under the paper scenario and under drift
// must disagree on mean fidelity (the error rates moved mid-run).
func TestCalibrationDriftChangesOutcome(t *testing.T) {
	drift := shrinkDrift(t)
	driftRun, err := drift.RunMode("speed")
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewScenario("paper")
	if err != nil {
		t.Fatal(err)
	}
	static.Workload.Synthetic.N = drift.Workload.Synthetic.N
	staticRun, err := static.RunMode("speed")
	if err != nil {
		t.Fatal(err)
	}
	if driftRun.Results.FidelityMean == staticRun.Results.FidelityMean {
		t.Fatalf("drift did not change fidelity: %g", driftRun.Results.FidelityMean)
	}

	// Determinism: a fresh run of the same scenario reproduces exactly.
	again, err := shrinkDrift(t).RunMode("speed")
	if err != nil {
		t.Fatal(err)
	}
	if again.Results != driftRun.Results {
		t.Fatalf("drift run not deterministic:\n%+v\n%+v", again.Results, driftRun.Results)
	}
}

// TestCalibrationDriftExecutorEquivalence runs the scenario as a spec
// on one worker and on a four-worker pool: the drift process must
// reproduce bit-identically.
func TestCalibrationDriftExecutorEquivalence(t *testing.T) {
	spec := Spec{
		Scenario: "calibration-drift",
		Jobs:     16,
		Matrices: []TaskMatrix{{Kind: "modes", Modes: []string{"speed", "fair"}}},
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
		t.Fatalf("sequential vs parallel drift runs differ:\n%s", sb.String())
	}
}

package records

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func diffFixture() *RunManifest {
	return &RunManifest{
		Label:   "a",
		Workers: 4,
		Runs: []RunSummary{
			{ID: "mode/speed", Kind: "mode", Mode: "speed", WorkloadSeed: 1, FleetSeed: 2025,
				Phi: 0.95, Lambda: 0.05, Jobs: 30, TsimS: 100, FidelityMean: 0.7,
				FidelityStd: 0.02, TcommS: 40, MeanDevicesPerJob: 2.5, MeanWaitS: 9, WallMS: 12},
			{ID: "mode/fair", Kind: "mode", Mode: "fair", WorkloadSeed: 1, FleetSeed: 2025,
				Phi: 0.95, Lambda: 0.05, Jobs: 30, TsimS: 105, FidelityMean: 0.69,
				FidelityStd: 0.02, TcommS: 44, MeanDevicesPerJob: 2.6, MeanWaitS: 10, WallMS: 15},
		},
	}
}

// TestDiffIdenticalIgnoresSchedulingNoise: wall times, worker
// accounting, and labels legitimately vary between executions of the
// same experiment, so two runs differing only there must diff Empty —
// the property that makes -diff a determinism gate across executors.
func TestDiffIdenticalIgnoresSchedulingNoise(t *testing.T) {
	a := diffFixture()
	b := diffFixture()
	b.Label = "b"
	b.Workers = 16
	for i := range b.Runs {
		b.Runs[i].WallMS *= 3
	}
	d := DiffManifests(a, b, DiffOptions{})
	if !d.Empty() {
		var buf bytes.Buffer
		d.Write(&buf)
		t.Fatalf("scheduling noise reported as drift:\n%s", buf.String())
	}
	if d.Compared != 2 {
		t.Fatalf("compared %d, want 2", d.Compared)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "agree on all 2") {
		t.Fatalf("report = %q", buf.String())
	}
}

// TestDiffReportsMetricDeltas: a moved metric surfaces per task with
// the signed delta.
func TestDiffReportsMetricDeltas(t *testing.T) {
	a := diffFixture()
	b := diffFixture()
	b.Runs[1].FidelityMean = 0.64
	b.Runs[1].TcommS = 46
	d := DiffManifests(a, b, DiffOptions{})
	if d.Empty() || len(d.Rows) != 1 {
		t.Fatalf("diff = %+v", d)
	}
	row := d.Rows[0]
	if row.ID != "mode/fair" || len(row.Metrics) != 2 || len(row.Config) != 0 {
		t.Fatalf("row = %+v", row)
	}
	if row.Metrics[0].Name != "fidelity_mean" || row.Metrics[0].Delta >= 0 {
		t.Fatalf("metrics[0] = %+v, want negative fidelity_mean delta", row.Metrics[0])
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode/fair") || !strings.Contains(out, "fidelity_mean") {
		t.Fatalf("report = %q", out)
	}
}

// TestDiffReportsConfigMismatch: rows claiming the same task ID but
// produced under different configuration are flagged as config drift,
// not just metric noise — including scenario-level drift (fleet
// preset, arrival rate), which changes results without touching any
// seed.
func TestDiffReportsConfigMismatch(t *testing.T) {
	a := diffFixture()
	b := diffFixture()
	b.Runs[0].WorkloadSeed = 99
	d := DiffManifests(a, b, DiffOptions{})
	if len(d.Rows) != 1 || len(d.Rows[0].Config) != 1 || d.Rows[0].Config[0].Name != "workload_seed" {
		t.Fatalf("diff = %+v", d)
	}
	c := diffFixture()
	c.Runs[0].FleetPreset = "hetero"
	c.Runs[1].MeanInterarrivalS = 10
	d = DiffManifests(a, c, DiffOptions{})
	if len(d.Rows) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	if d.Rows[0].Config[0].Name != "fleet_preset" || d.Rows[1].Config[0].Name != "mean_interarrival_s" {
		t.Fatalf("scenario drift not flagged: %+v", d.Rows)
	}
}

// TestDiffReportsMissingTasks: one-sided tasks are listed on the side
// that has them.
func TestDiffReportsMissingTasks(t *testing.T) {
	a := diffFixture()
	b := diffFixture()
	extra := b.Runs[0]
	extra.ID = "mode/extra"
	b.Runs = append(b.Runs, extra)
	a.Runs = a.Runs[:1] // drop mode/fair from a
	d := DiffManifests(a, b, DiffOptions{})
	if d.Empty() {
		t.Fatal("missing tasks reported as agreement")
	}
	if len(d.OnlyInA) != 0 || len(d.OnlyInB) != 2 {
		t.Fatalf("onlyA=%v onlyB=%v", d.OnlyInA, d.OnlyInB)
	}
	if d.Compared != 1 {
		t.Fatalf("compared %d", d.Compared)
	}
}

// TestDiffNaNMetricsEqual is the bugfix gate: two byte-identical
// manifests whose metrics contain NaN (e.g. mean wait of a run that
// finished no jobs) must diff Empty. Under IEEE semantics NaN != NaN,
// so the exact-equality comparison used to report every NaN metric as
// drift — a spurious CI failure on identical replicated runs.
func TestDiffNaNMetricsEqual(t *testing.T) {
	a := diffFixture()
	a.Runs[0].MeanWaitS = math.NaN()
	a.Runs[1].FidelityMean = math.NaN()
	b := diffFixture()
	b.Runs[0].MeanWaitS = math.NaN()
	b.Runs[1].FidelityMean = math.NaN()
	d := DiffManifests(a, b, DiffOptions{})
	if !d.Empty() {
		var buf bytes.Buffer
		d.Write(&buf)
		t.Fatalf("identical NaN metrics reported as drift:\n%s", buf.String())
	}
	// NaN on one side only IS drift.
	c := diffFixture()
	d = DiffManifests(a, c, DiffOptions{})
	if d.Empty() || len(d.Rows) != 2 {
		t.Fatalf("one-sided NaN not reported: %+v", d)
	}
}

// TestDiffTolerance: DiffOptions' absolute and relative
// tolerances absorb cross-platform float drift, the zero value keeps
// the exact gate, and config fields never get tolerance.
func TestDiffTolerance(t *testing.T) {
	a := diffFixture()
	b := diffFixture()
	b.Runs[0].TsimS += 1e-9       // tiny absolute drift on a ~100 metric
	b.Runs[1].TcommS *= 1 + 1e-12 // tiny relative drift

	if d := DiffManifests(a, b, DiffOptions{}); d.Empty() {
		t.Fatal("exact gate absorbed drift without a tolerance")
	}
	if d := DiffManifests(a, b, DiffOptions{AbsTol: 1e-6}); !d.Empty() {
		t.Fatalf("abs tolerance did not absorb drift: %+v", d.Rows)
	}
	if d := DiffManifests(a, b, DiffOptions{RelTol: 1e-9}); !d.Empty() {
		t.Fatalf("rel tolerance did not absorb drift: %+v", d.Rows)
	}
	// The tolerance is a drift allowance, not a blindfold: a real delta
	// far beyond it still surfaces.
	b.Runs[0].TsimS += 5
	d := DiffManifests(a, b, DiffOptions{AbsTol: 1e-6, RelTol: 1e-9})
	if d.Empty() || d.Rows[0].Metrics[0].Name != "tsim_s" {
		t.Fatalf("real delta hidden by tolerance: %+v", d)
	}
	// Config drift is never tolerated: it means different experiments.
	cfg := diffFixture()
	cfg.Runs[0].Phi = 0.95 + 1e-13
	if d := DiffManifests(a, cfg, DiffOptions{AbsTol: 1, RelTol: 1}); d.Empty() {
		t.Fatal("config drift absorbed by metric tolerance")
	}
	// An infinite disagreement is never within tolerance: the relative
	// bound would otherwise compare Inf <= Inf and pass a metric that
	// diverged to infinity (equal infinities still compare equal).
	inf := diffFixture()
	inf.Runs[0].TsimS = math.Inf(1)
	if d := DiffManifests(a, inf, DiffOptions{RelTol: 0.5}); d.Empty() {
		t.Fatal("+Inf vs finite absorbed by relative tolerance")
	}
	neg := diffFixture()
	neg.Runs[0].TsimS = math.Inf(-1)
	if d := DiffManifests(inf, neg, DiffOptions{RelTol: 0.5}); d.Empty() {
		t.Fatal("+Inf vs -Inf absorbed by relative tolerance")
	}
	if d := DiffManifests(inf, inf, DiffOptions{}); !d.Empty() {
		t.Fatalf("equal infinities reported as drift: %+v", d.Rows)
	}
}

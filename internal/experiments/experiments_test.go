package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// smallCase returns a scaled-down case study that keeps test time low
// while preserving queueing pressure (jobs arrive faster than the cloud
// drains them).
func smallCase() *CaseStudy {
	cs := Default()
	cs.Workload.Synthetic.N = 60
	cs.Workload.Synthetic.Seed = 3
	cs.TrainSteps = 2048
	cs.PPO.NSteps = 512
	cs.PPO.BatchSize = 64
	cs.PPO.NEpochs = 3
	return cs
}

// execute runs one task matrix on one worker — the reference run —
// and returns its manifest rows.
func execute(t *testing.T, cs *CaseStudy, m TaskMatrix) []records.RunSummary {
	t.Helper()
	mf, err := Execute(context.Background(), cs, m, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return mf.Runs
}

func TestRunModeUnknown(t *testing.T) {
	if _, err := smallCase().RunMode("warp"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestPolicyForPassesSimulationPhi: policies the run builder makes for
// a case study receive its configured φ, so a phi-sweep over a fidelity-predictive
// mode (oracle) scores allocations with the same penalty the
// simulation applies — including the swept value on task snapshots.
func TestPolicyForPassesSimulationPhi(t *testing.T) {
	cs := smallCase()
	cs.Model.Phi = 0.88
	run := cs.Run
	run.Policy = "oracle"
	_, pol, _, err := run.Build(sim.NewEnvironment(), policy.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := pol.(policy.Oracle); !ok || o.Phi != 0.88 {
		t.Fatalf("oracle policy = %#v, want the simulation's Phi 0.88", pol)
	}
}

func TestRunModeCompletesAllJobs(t *testing.T) {
	cs := smallCase()
	for _, mode := range []string{"speed", "fair", "fidelity"} {
		run, err := cs.RunMode(mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if run.Results.JobsFinished != 60 {
			t.Fatalf("%s: finished %d of 60", mode, run.Results.JobsFinished)
		}
		if len(run.Fidelities) != 60 {
			t.Fatalf("%s: %d fidelity samples", mode, len(run.Fidelities))
		}
		if run.Results.Policy != mode {
			t.Fatalf("%s: results labeled %q", mode, run.Results.Policy)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full case-study shape test")
	}
	cs := smallCase()
	cs.Workload.Synthetic.N = 150
	rows := execute(t, cs, TaskMatrix{Kind: "modes"})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]int{}
	for i, r := range rows {
		byMode[r.Mode] = i
	}
	speed := rows[byMode["speed"]]
	fid := rows[byMode["fidelity"]]
	fair := rows[byMode["fair"]]
	rlr := rows[byMode["rlbase"]]

	// Paper Table 2 shape assertions.
	if !(fid.FidelityMean > speed.FidelityMean &&
		fid.FidelityMean > fair.FidelityMean &&
		fid.FidelityMean > rlr.FidelityMean) {
		t.Errorf("fidelity mode should win on fidelity: %+v", rows)
	}
	if !(rlr.FidelityMean < speed.FidelityMean && rlr.FidelityMean < fair.FidelityMean) {
		t.Errorf("rlbase should have the lowest fidelity: rl=%.4f speed=%.4f fair=%.4f",
			rlr.FidelityMean, speed.FidelityMean, fair.FidelityMean)
	}
	if ratio := fid.TsimS / speed.TsimS; ratio < 1.5 || ratio > 6 {
		t.Errorf("fidelity/speed Tsim ratio = %.2f, want the paper's ~2-3x regime", ratio)
	}
	if !(fid.TcommS < speed.TcommS && fid.TcommS < fair.TcommS &&
		fid.TcommS < rlr.TcommS) {
		t.Errorf("fidelity mode should have the lowest comm: %+v", rows)
	}
	if !(rlr.TcommS > speed.TcommS && rlr.TcommS > fair.TcommS) {
		t.Errorf("rlbase should have the highest comm: rl=%.0f speed=%.0f fair=%.0f",
			rlr.TcommS, speed.TcommS, fair.TcommS)
	}
	// Speed and fair form a close middle cluster on runtime.
	if speed.TsimS > 1.3*fair.TsimS || fair.TsimS > 1.3*speed.TsimS {
		t.Errorf("speed (%.0f) and fair (%.0f) Tsim should be close",
			speed.TsimS, fair.TsimS)
	}
}

func TestTrainRLCachesPolicy(t *testing.T) {
	cs := smallCase()
	p1, h1, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, h2, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || len(h1) != len(h2) {
		t.Fatal("TrainRL should cache the trained policy")
	}
}

func TestFig5SeriesShape(t *testing.T) {
	cs := smallCase()
	cs.TrainSteps = 4 * 512
	_, hist, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	reward, entropy := Fig5Series(hist)
	if len(reward.X) != len(hist) || len(entropy.X) != len(hist) {
		t.Fatal("series lengths wrong")
	}
	// Initial entropy loss for a fresh 5-dim Gaussian is ≈ −7.09 — the
	// paper's Fig. 5 starting point.
	if entropy.Y[0] > -6.5 || entropy.Y[0] < -7.6 {
		t.Fatalf("initial entropy loss = %g, want ≈ -7.1", entropy.Y[0])
	}
	// Rewards are fidelities: all within (0,1).
	for _, r := range reward.Y {
		if r <= 0 || r >= 1 {
			t.Fatalf("reward %g outside (0,1)", r)
		}
	}
	// Timesteps monotone increasing.
	for i := 1; i < len(reward.X); i++ {
		if reward.X[i] <= reward.X[i-1] {
			t.Fatal("timesteps not increasing")
		}
	}
}

func TestFig6HistogramsCoverAllModes(t *testing.T) {
	cs := smallCase()
	runs := make(map[string]*ModeRun, len(Modes))
	for _, mode := range Modes {
		run, err := cs.RunMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		runs[mode] = run
	}
	hists := Fig6Histograms(runs, 30)
	if len(hists) != 4 {
		t.Fatalf("histograms = %d", len(hists))
	}
	var lo, hi float64
	first := true
	for mode, h := range hists {
		if h.Total != 60 {
			t.Fatalf("%s: binned %d of 60", mode, h.Total)
		}
		if first {
			lo, hi = h.Lo, h.Hi
			first = false
		} else if h.Lo != lo || h.Hi != hi {
			t.Fatal("histograms must share a common range for comparison")
		}
	}
	// The fidelity-mode distribution should sit to the right: its mode
	// exceeds the rl-mode's.
	if hists["fidelity"].Mode() <= hists["rlbase"].Mode() {
		t.Errorf("fidelity mode should be right-shifted: mode %.4f vs rl %.4f",
			hists["fidelity"].Mode(), hists["rlbase"].Mode())
	}
}

func TestFig6EmptyRunsSafeRange(t *testing.T) {
	hists := Fig6Histograms(map[string]*ModeRun{"speed": {Fidelities: nil}}, 10)
	if hists["speed"].Total != 0 {
		t.Fatal("empty run should produce empty histogram")
	}
}

func TestPhiSweepMonotoneForMultiDeviceJobs(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 25
	points := execute(t, cs, TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.85, 0.95, 1.0}})
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Every job is multi-device (q > 127), so higher φ ⇒ strictly higher
	// mean fidelity.
	for i := 1; i < len(points); i++ {
		if points[i].FidelityMean <= points[i-1].FidelityMean {
			t.Fatalf("fidelity not monotone in φ: %+v", points)
		}
	}
	// The sweep runs on task snapshots; the case study keeps its φ.
	if cs.Model.Phi != 0.95 {
		t.Fatalf("Phi not restored: %g", cs.Model.Phi)
	}
}

func TestLambdaSweepScalesCommTime(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 25
	points := execute(t, cs, TaskMatrix{Kind: "lambda-sweep", Mode: "fair", Values: []float64{0.0, 0.02, 0.04}})
	if points[0].TcommS != 0 {
		t.Fatalf("λ=0 should zero comm time, got %g", points[0].TcommS)
	}
	if points[2].TcommS <= points[1].TcommS {
		t.Fatal("comm time should grow with λ")
	}
}

func TestSweepValidation(t *testing.T) {
	cs := smallCase()
	ctx := context.Background()
	if _, err := Execute(ctx, cs, TaskMatrix{Kind: "phi-sweep", Mode: "speed"}, ExecOptions{Workers: 1}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := Execute(ctx, cs, TaskMatrix{Kind: "phi-sweep", Mode: "bogus", Values: []float64{0.9}}, ExecOptions{Workers: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRLDeploymentAblation(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	rows := execute(t, cs, TaskMatrix{Kind: "rl-deploy"})
	if len(rows) != 2 {
		t.Fatalf("%d rows, want sampled and deterministic", len(rows))
	}
	for i, wantDet := range []bool{false, true} {
		r := rows[i]
		if r.Mode != "rlbase" || r.Jobs != 30 || r.RLDeterministic == nil || *r.RLDeterministic != wantDet {
			t.Fatalf("row %d = %+v, want rlbase over 30 jobs with deterministic=%v", i, r, wantDet)
		}
		if r.TsimS <= 0 || r.FidelityMean <= 0 || r.FidelityMean >= 1 {
			t.Fatalf("row %d degenerate: %+v", i, r)
		}
	}
	// The deployments run on task snapshots; the case study keeps its flag.
	if cs.RLDeterministic {
		t.Fatal("RLDeterministic not restored")
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	rows := execute(t, cs, TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2, 3}})
	if len(rows) != 3 {
		t.Fatalf("%d rows, want one per seed", len(rows))
	}
	for i, r := range rows {
		if r.Mode != "speed" || r.WorkloadSeed != int64(i+1) {
			t.Fatalf("row %d = %+v", i, r)
		}
	}
	agg, err := records.AggregateManifests(&records.RunManifest{Runs: rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != 1 || agg.Rows[0].ID != "mode/speed" {
		t.Fatalf("aggregated rows = %+v, want the one base task mode/speed", agg.Rows)
	}
	ts, mf, tc := agg.Rows[0].Metrics["tsim_s"], agg.Rows[0].Metrics["fidelity_mean"], agg.Rows[0].Metrics["tcomm_s"]
	if agg.Rows[0].N != 3 || mf.Std < 0 || mf.CI95 <= 0 {
		t.Fatalf("muF stats inconsistent: n=%d %+v", agg.Rows[0].N, mf)
	}
	if ts.Mean <= 0 || tc.Mean <= 0 {
		t.Fatalf("degenerate stats: tsim %+v, tcomm %+v", ts, tc)
	}
	// Different seeds must actually produce different workloads.
	if ts.Std == 0 {
		t.Fatal("replication shows no variation across seeds")
	}
	// The replicas run on snapshots; the case study keeps its seed.
	if cs.Workload.Synthetic.Seed != smallCase().Workload.Synthetic.Seed {
		t.Fatalf("workload seed not restored: %d", cs.Workload.Synthetic.Seed)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	cs := smallCase()
	ctx := context.Background()
	if _, err := Execute(ctx, cs, TaskMatrix{Kind: "replicate", Mode: "speed", ReplicationSeeds: []int64{1}}, ExecOptions{Workers: 1}); err == nil {
		t.Fatal("the removed replicate kind accepted")
	}
	if _, err := Execute(ctx, cs, TaskMatrix{Kind: "modes", Modes: []string{"bogus"}, ReplicationSeeds: []int64{1}}, ExecOptions{Workers: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunModeMatchesManifestRow: a RunMode on the trained case study is
// the same simulation as that mode's task in the Table 2 manifest, so
// Figure 6 (binned from RunMode's per-job fidelities) and Table 2
// describe the same runs.
func TestRunModeMatchesManifestRow(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	rows := execute(t, cs, TaskMatrix{Kind: "modes"})
	for i, mode := range Modes {
		run, err := cs.RunMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		res, r := run.Results, rows[i]
		got := []float64{res.TotalSimTime, res.FidelityMean, res.FidelityStd, res.TotalCommTime, res.MeanDevicesPerJob, res.MeanWaitTime}
		want := []float64{r.TsimS, r.FidelityMean, r.FidelityStd, r.TcommS, r.MeanDevicesPerJob, r.MeanWaitS}
		if r.Mode != mode || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunMode results %v diverge from manifest row %s %v", mode, got, r.ID, want)
		}
	}
}

func TestDefaultUsesPaperWorkload(t *testing.T) {
	cs := Default()
	if cs.Workload.Synthetic.N != 1000 || cs.Workload.Synthetic.MinQubits != 130 || cs.Workload.Synthetic.MaxQubits != 250 {
		t.Fatalf("default workload deviates from the paper: %+v", *cs.Workload.Synthetic)
	}
	if cs.PPO.ClipRange != 0.2 {
		t.Fatal("default PPO should use SB3 defaults")
	}
	jobs, err := cs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1000 {
		t.Fatalf("jobs = %d", len(jobs))
	}
}

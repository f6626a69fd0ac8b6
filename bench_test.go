// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus ablation benches for the design constants DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The artifact benches use a scaled workload (150 jobs, reduced PPO
// budget) so a full sweep completes in minutes; cmd/experiments runs the
// full-size versions (1,000 jobs, 100k training steps).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchCase builds the scaled case study shared by artifact benches.
func benchCase() *experiments.CaseStudy {
	cs := experiments.Default()
	cs.Workload.N = 150
	cs.TrainSteps = 4096
	cs.PPO.NSteps = 1024
	cs.PPO.NEpochs = 4
	return cs
}

// BenchmarkTable2 regenerates the paper's Table 2: the four allocation
// strategies on the synthetic large-circuit workload, reporting Tsim,
// μF±σF, and Tcomm per mode.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		rows, err := cs.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Table 2 (scaled: %d jobs):", cs.Workload.N)
			for _, r := range rows {
				b.Logf("  %s", r.String())
			}
			for _, r := range rows {
				prefix := r.Policy + "_"
				b.ReportMetric(r.TotalSimTime, prefix+"Tsim_s")
				b.ReportMetric(r.FidelityMean, prefix+"muF")
				b.ReportMetric(r.TotalCommTime, prefix+"Tcomm_s")
			}
		}
	}
}

// BenchmarkSequentialRunAll is the single-worker baseline for the
// orchestration engine: the four strategies run back to back, policy
// pre-trained so only simulation time is measured.
func BenchmarkSequentialRunAll(b *testing.B) {
	cs := benchCase()
	cs.Workload.N = 400
	if _, _, err := cs.TrainRL(nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRunAll fans the four strategies out across
// GOMAXPROCS workers and reports the wall-clock speedup over the
// sequential baseline. The four tasks are independent and similarly
// sized, so on 4+ cores the speedup approaches 4x (≈1x on one core —
// the engine adds no meaningful overhead).
func BenchmarkParallelRunAll(b *testing.B) {
	cs := benchCase()
	cs.Workload.N = 400
	if _, _, err := cs.TrainRL(nil); err != nil {
		b.Fatal(err)
	}
	// Baseline averaged over a few runs (bounded so the untimed work
	// doesn't balloon when the framework grows b.N).
	baseN := min(b.N, 3)
	seqStart := time.Now()
	for i := 0; i < baseN; i++ {
		if _, err := cs.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	seqAvg := time.Since(seqStart).Seconds() / float64(baseN)
	ctx := context.Background()
	b.ResetTimer()
	parStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := cs.RunAllParallel(ctx, experiments.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	parAvg := time.Since(parStart).Seconds() / float64(b.N)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(seqAvg/parAvg, "speedup_vs_sequential")
}

// BenchmarkParallelReplicated scales the engine across eight replicated
// workload seeds — uniform independent tasks, the best case for the
// worker pool (speedup ≈ min(8, cores)).
func BenchmarkParallelReplicated(b *testing.B) {
	cs := benchCase()
	cs.Workload.N = 150
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	ctx := context.Background()
	baseN := min(b.N, 3)
	seqStart := time.Now()
	for i := 0; i < baseN; i++ {
		if _, err := cs.RunReplicated("speed", seeds); err != nil {
			b.Fatal(err)
		}
	}
	seqAvg := time.Since(seqStart).Seconds() / float64(baseN)
	b.ResetTimer()
	parStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := cs.RunReplicatedParallel(ctx, experiments.ParallelOptions{}, "speed", seeds); err != nil {
			b.Fatal(err)
		}
	}
	parAvg := time.Since(parStart).Seconds() / float64(b.N)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(seqAvg/parAvg, "speedup_vs_sequential")
}

// BenchmarkFig5Training regenerates the paper's Figure 5: PPO training
// progress (mean episode reward and entropy loss over timesteps).
func BenchmarkFig5Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		_, hist, err := cs.TrainRL(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(hist) > 0 {
			first, last := hist[0], hist[len(hist)-1]
			b.Logf("Fig 5 (scaled: %d steps): reward %.4f→%.4f, entropy loss %.2f→%.2f",
				cs.TrainSteps, first.MeanEpisodeReward, last.MeanEpisodeReward,
				first.EntropyLoss, last.EntropyLoss)
			b.ReportMetric(last.MeanEpisodeReward, "final_reward")
			b.ReportMetric(last.EntropyLoss, "final_entropy_loss")
		}
	}
}

// BenchmarkFig6Histograms regenerates the paper's Figure 6: per-strategy
// fidelity distributions over the shared workload.
func BenchmarkFig6Histograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		runs, err := cs.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		hists := experiments.Fig6Histograms(runs, 30)
		if i == 0 {
			for _, mode := range experiments.Modes {
				h := hists[mode]
				var sb strings.Builder
				if err := h.RenderASCII(&sb, 40); err != nil {
					b.Fatal(err)
				}
				b.Logf("Fig 6 — %s (mode of distribution %.4f):\n%s", mode, h.Mode(), sb.String())
				b.ReportMetric(h.Mode(), mode+"_dist_mode")
			}
		}
	}
}

// BenchmarkExecTimeModel measures the §6.1 execution-time model (Eq. 3)
// and checks the worked example (≈21 min on ibm_brussels).
func BenchmarkExecTimeModel(b *testing.B) {
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += metrics.ExecutionTime(100, 10, 40000, 128, 220000)
	}
	if b.N > 0 {
		minutes := sum / float64(b.N) / 60
		if minutes < 21 || minutes > 22 {
			b.Fatalf("worked example drifted: %.2f minutes", minutes)
		}
		b.ReportMetric(minutes, "worked_example_min")
	}
}

// BenchmarkAblationPhiSweep sweeps the Eq. 8 communication penalty φ and
// reports the fidelity-mode-vs-speed-mode fidelity gap sensitivity.
func BenchmarkAblationPhiSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		cs.Workload.N = 60
		points, err := cs.PhiSweep("speed", []float64{0.85, 0.90, 0.95, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("phi=%.2f -> muF=%.4f", p.Param, p.Results.FidelityMean)
				b.ReportMetric(p.Results.FidelityMean, fmt.Sprintf("muF_phi_%.2f", p.Param))
			}
		}
	}
}

// BenchmarkAblationLambdaSweep sweeps the Eq. 9 per-qubit latency λ.
func BenchmarkAblationLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		cs.Workload.N = 60
		points, err := cs.LambdaSweep("fair", []float64{0.0, 0.02, 0.05, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("lambda=%.2f -> Tcomm=%.1f Tsim=%.1f",
					p.Param, p.Results.TotalCommTime, p.Results.TotalSimTime)
				b.ReportMetric(p.Results.TotalCommTime, fmt.Sprintf("Tcomm_lambda_%.2f", p.Param))
			}
		}
	}
}

// BenchmarkAblationMinKvsProportional compares the min-k greedy device
// selection (used by speed/fair) against the proportional-spread
// variants — the key design choice behind the communication-overhead
// differences in Table 2.
func BenchmarkAblationMinKvsProportional(b *testing.B) {
	run := func(pol policy.Policy) (float64, float64) {
		cs := benchCase()
		cs.Workload.N = 60
		jobs, err := cs.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		env := sim.NewEnvironment()
		fleet, err := cs.Fleet(env)
		if err != nil {
			b.Fatal(err)
		}
		simEnv, err := newCoreEnv(env, fleet, pol)
		if err != nil {
			b.Fatal(err)
		}
		simEnv.SubmitWorkload(jobs)
		res, err := simEnv.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.FidelityMean, res.TotalCommTime
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range []policy.Policy{
			policy.Speed{}, policy.ProportionalSpeed{},
			policy.Fair{}, policy.ProportionalFair{},
		} {
			muF, comm := run(pol)
			if i == 0 {
				b.Logf("%-18s muF=%.4f Tcomm=%.1f", pol.Name(), muF, comm)
				b.ReportMetric(comm, pol.Name()+"_Tcomm")
			}
		}
	}
}

// BenchmarkAblationRLDeployment compares sampled vs deterministic
// deployment of the trained policy (§7.1's "exploration" explanation for
// the RL mode's flat fidelity distribution).
func BenchmarkAblationRLDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		cs.Workload.N = 60
		sampled, det, err := cs.RLDeploymentAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("sampled:       muF=%.4f sigma=%.4f Tcomm=%.1f",
				sampled.Results.FidelityMean, sampled.Results.FidelityStd, sampled.Results.TotalCommTime)
			b.Logf("deterministic: muF=%.4f sigma=%.4f Tcomm=%.1f",
				det.Results.FidelityMean, det.Results.FidelityStd, det.Results.TotalCommTime)
			b.ReportMetric(sampled.Results.FidelityStd, "sampled_sigmaF")
			b.ReportMetric(det.Results.FidelityStd, "deterministic_sigmaF")
		}
	}
}

// BenchmarkAblationBackfill compares FIFO head-of-line dispatch (the
// paper's queue model) against EASY-style backfill on the fidelity
// policy, where a blocked head is most common.
func BenchmarkAblationBackfill(b *testing.B) {
	run := func(backfill bool) float64 {
		cfg := job.DefaultSyntheticConfig()
		cfg.N = 60
		jobs, err := job.Synthetic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		env := sim.NewEnvironment()
		fleet, err := deviceFleet(env)
		if err != nil {
			b.Fatal(err)
		}
		coreCfg := coreDefaultConfig()
		coreCfg.Backfill = backfill
		simEnv, err := coreNewEnv(env, fleet, policy.Fidelity{}, coreCfg)
		if err != nil {
			b.Fatal(err)
		}
		simEnv.SubmitWorkload(jobs)
		res, err := simEnv.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.TotalSimTime
	}
	for i := 0; i < b.N; i++ {
		fifo := run(false)
		backfill := run(true)
		if i == 0 {
			b.Logf("fidelity-policy makespan: FIFO %.1f s, backfill %.1f s", fifo, backfill)
			b.ReportMetric(fifo, "fifo_Tsim_s")
			b.ReportMetric(backfill, "backfill_Tsim_s")
		}
	}
}

// BenchmarkAblationRewardShaping trains the PPO policy with and without
// the communication-aware reward (the paper's §6.6 future-work item) and
// compares the deployed policies' partition counts.
func BenchmarkAblationRewardShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnvironment()
		fleet, err := deviceFleet(env)
		if err != nil {
			b.Fatal(err)
		}
		info := rlsched.InfoFromFleet(fleet)
		ppoCfg := rl.DefaultPPOConfig()
		ppoCfg.NSteps = 1024
		ppoCfg.NEpochs = 4
		train := func(shaped bool) float64 {
			cfg := rlsched.DefaultGymConfig()
			cfg.CommAwareReward = shaped
			pol, _, err := rlsched.Train(info, cfg, ppoCfg, 8192, nil)
			if err != nil {
				b.Fatal(err)
			}
			free := []int{127, 127, 127, 127, 127}
			states := make([]policy.DeviceState, len(info))
			for i2, di := range info {
				states[i2] = di.State
			}
			total, n := 0.0, 0
			for q := 130; q <= 250; q += 10 {
				action := pol.MeanAction(rlsched.Observation(q, states))
				shares := rlsched.SharesFromWeights(q, action, free)
				k := 0
				for _, s := range shares {
					if s > 0 {
						k++
					}
				}
				total += float64(k)
				n++
			}
			return total / float64(n)
		}
		plainK := train(false)
		shapedK := train(true)
		if i == 0 {
			b.Logf("mean partitions per job: plain reward %.2f, comm-aware reward %.2f", plainK, shapedK)
			b.ReportMetric(plainK, "plain_mean_k")
			b.ReportMetric(shapedK, "shaped_mean_k")
		}
	}
}

// BenchmarkAblationPartitioner compares circuit-decomposition strategies
// by the two-qubit gates they cut (each cut gate is one inter-device
// classical exchange).
func BenchmarkAblationPartitioner(b *testing.B) {
	circ, err := circuit.Random(circuit.RandomConfig{
		NumQubits: 200, Depth: 16, TwoQubitDensity: 0.5, Locality: 6, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{127, 63, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		random, err := circuit.RandomPartition(circ, sizes, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		minCut, err := circuit.MinCutPartition(circ, sizes, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("cut 2q gates: random %d, min-cut %d (of %d total)",
				random.CutGates(circ), minCut.CutGates(circ), circ.TwoQubitGateCount())
			b.ReportMetric(float64(random.CutGates(circ)), "random_cut")
			b.ReportMetric(float64(minCut.CutGates(circ)), "mincut_cut")
		}
	}
}

// BenchmarkAblationCalibrationDrift runs the fidelity policy on static
// versus drifting calibration, quantifying how much of the error-aware
// advantage survives the dynamic hardware variability the paper's model
// omits (§7.2).
func BenchmarkAblationCalibrationDrift(b *testing.B) {
	run := func(drift bool) (muF float64, devicesUsed int) {
		cfg := job.DefaultSyntheticConfig()
		cfg.N = 60
		jobs, err := job.Synthetic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		env := sim.NewEnvironment()
		fleet, err := deviceFleet(env)
		if err != nil {
			b.Fatal(err)
		}
		simEnv, err := newCoreEnv(env, fleet, policy.Fidelity{})
		if err != nil {
			b.Fatal(err)
		}
		simEnv.SubmitWorkload(jobs)
		if drift {
			if err := simEnv.EnableCalibrationDrift(3600, 0.3, 17); err != nil {
				b.Fatal(err)
			}
		}
		res, err := simEnv.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.FidelityMean, len(simEnv.Records.DeviceLoadShare())
	}
	for i := 0; i < b.N; i++ {
		staticMuF, staticDevs := run(false)
		driftMuF, driftDevs := run(true)
		if i == 0 {
			b.Logf("static calibration:   muF=%.4f over %d devices", staticMuF, staticDevs)
			b.Logf("drifting calibration: muF=%.4f over %d devices", driftMuF, driftDevs)
			b.ReportMetric(staticMuF, "static_muF")
			b.ReportMetric(driftMuF, "drift_muF")
		}
	}
}

// BenchmarkAblationOracleHeadroom runs the fidelity-clairvoyant oracle
// baseline next to the error-aware heuristic and the trained RL policy,
// quantifying how much fidelity a perfect myopic allocator could still
// extract — the headroom available to better-learned policies.
func BenchmarkAblationOracleHeadroom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		cs.Workload.N = 60
		jobs, err := cs.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		run := func(pol policy.Policy) float64 {
			env := sim.NewEnvironment()
			fleet, err := cs.Fleet(env)
			if err != nil {
				b.Fatal(err)
			}
			simEnv, err := newCoreEnv(env, fleet, pol)
			if err != nil {
				b.Fatal(err)
			}
			simEnv.SubmitWorkload(jobs)
			res, err := simEnv.Run()
			if err != nil {
				b.Fatal(err)
			}
			return res.FidelityMean
		}
		oracleMuF := run(policy.Oracle{})
		fidMuF := run(policy.Fidelity{})
		rlRun, err := cs.RunMode("rlbase")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("muF: oracle %.4f, fidelity heuristic %.4f, rlbase %.4f",
				oracleMuF, fidMuF, rlRun.Results.FidelityMean)
			b.ReportMetric(oracleMuF, "oracle_muF")
			b.ReportMetric(fidMuF, "fidelity_muF")
			b.ReportMetric(rlRun.Results.FidelityMean, "rlbase_muF")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkDESEventThroughput measures raw event-kernel throughput: one
// AfterFunc schedule plus its pop per iteration.
func BenchmarkDESEventThroughput(b *testing.B) {
	env := sim.NewEnvironment()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.AfterFunc(float64(i%97), fn)
		if env.QueueLen() > 1024 {
			env.Run()
		}
	}
	env.Run()
}

// BenchmarkApportion measures the allocation apportionment hot path.
func BenchmarkApportion(b *testing.B) {
	weights := []float64{220000, 220000, 30000, 32000, 29000}
	caps := []int{127, 127, 127, 127, 127}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if policy.Apportion(130+i%120, weights, caps) == nil {
			b.Fatal("apportion failed")
		}
	}
}

// BenchmarkConnectedSubgraph measures strict-topology allocation search
// on the Eagle-127 heavy-hex lattice.
func BenchmarkConnectedSubgraph(b *testing.B) {
	g := graph.Eagle127()
	all := make([]int, 127)
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.ConnectedSubgraph(64, all) == nil {
			b.Fatal("no subgraph found")
		}
	}
}

// BenchmarkPPOSampleStep measures a single policy sample + env step.
func BenchmarkPPOSampleStep(b *testing.B) {
	env := sim.NewEnvironment()
	fleet, err := deviceFleet(env)
	if err != nil {
		b.Fatal(err)
	}
	info := rlsched.InfoFromFleet(fleet)
	gymEnv, err := rlsched.NewGymEnv(info, rlsched.DefaultGymConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pol := rl.NewGaussianPolicy(rng, rlsched.StateDim, rlsched.NumDevices, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := gymEnv.Reset()
		action, _, _ := pol.Sample(rng, obs)
		gymEnv.Step(action)
	}
}

// BenchmarkMLPForwardBatch measures the batched NN kernel on the
// policy-network shape (16-64-64-5) at PPO's minibatch size. It
// reports allocs/op — the steady-state batched forward pass must stay
// at zero (the 1-CPU containers gate on allocation counts, not wall
// clock).
func BenchmarkMLPForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewMLP(rng, nn.Tanh, rlsched.StateDim, 64, 64, rlsched.NumDevices)
	const batch = 64
	ws := nn.NewWorkspace(m, batch)
	in := ws.Input(batch)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(ws)
	}
	b.ReportMetric(batch, "samples/op")
}

// BenchmarkMLPForwardBackwardBatch measures a full batched gradient
// round trip (forward + backward accumulation) on the same shape.
func BenchmarkMLPForwardBackwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewMLP(rng, nn.Tanh, rlsched.StateDim, 64, 64, rlsched.NumDevices)
	const batch = 64
	ws := nn.NewWorkspace(m, batch)
	in := ws.Input(batch)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	dOut := ws.OutputGrad()
	for i := range dOut.Data {
		dOut.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(ws)
		m.BackwardBatch(ws)
	}
	b.ReportMetric(batch, "samples/op")
}

// BenchmarkPPOMinibatch measures the PPO update path on the gym
// environment: each op is one full Update (NEpochs × minibatch
// gradient steps over the rollout buffer) on the batched compute core.
// allocs/op must stay at zero in steady state — the buffer backing,
// workspaces and parameter views are all preallocated on the trainer.
func BenchmarkPPOMinibatch(b *testing.B) {
	env := sim.NewEnvironment()
	fleet, err := deviceFleet(env)
	if err != nil {
		b.Fatal(err)
	}
	info := rlsched.InfoFromFleet(fleet)
	gymEnv, err := rlsched.NewGymEnv(info, rlsched.DefaultGymConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := rl.DefaultPPOConfig()
	cfg.NSteps = 256
	cfg.BatchSize = 64
	cfg.NEpochs = 1
	agent := rl.NewPPO(gymEnv, cfg)
	// One Learn iteration fills the rollout buffer (with advantages)
	// and warms up the optimizer's lazily allocated moment buffers.
	agent.Learn(gymEnv, cfg.NSteps, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update()
	}
	b.ReportMetric(float64(cfg.NSteps/cfg.BatchSize), "minibatches/op")
}

// BenchmarkPolicyInference measures deployed single-sample action
// selection (the rlsched fast path): one SampleInto per op, zero
// allocations in steady state.
func BenchmarkPolicyInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol := rl.NewGaussianPolicy(rng, rlsched.StateDim, rlsched.NumDevices, 64, 64)
	obs := make([]float64, rlsched.StateDim)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	action := make([]float64, rlsched.NumDevices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.SampleInto(rng, obs, action)
	}
}

// BenchmarkFidelityModel measures the Eq. 4–8 fidelity computation.
func BenchmarkFidelityModel(b *testing.B) {
	fids := []float64{0.8, 0.75}
	qubits := []int{127, 63}
	for i := 0; i < b.N; i++ {
		f := metrics.PartitionFidelity(2.5e-4, 8e-3, 1.3e-2, 12, 127, 400)
		fids[0] = f
		metrics.FinalFidelity(fids, qubits, 0.95)
	}
}

// BenchmarkHistogram measures Fig.6-style binning of 1k samples.
func BenchmarkHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 0.6 + 0.2*rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.NewHistogram(xs, 0.5, 0.9, 40)
	}
}

// BenchmarkWorkloadGeneration measures §7 synthetic workload creation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := job.DefaultSyntheticConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := job.Synthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

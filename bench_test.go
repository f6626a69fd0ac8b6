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
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchCase builds the scaled case study shared by artifact benches.
func benchCase() *experiments.CaseStudy {
	cs := experiments.Default()
	cs.Workload.Synthetic.N = 150
	cs.TrainSteps = 4096
	cs.PPO.NSteps = 1024
	cs.PPO.NEpochs = 4
	return cs
}

// execute runs one task matrix on cs with opt and returns the manifest
// rows.
func execute(b *testing.B, cs *experiments.CaseStudy, m experiments.TaskMatrix, opt experiments.ExecOptions) []records.RunSummary {
	b.Helper()
	mf, err := experiments.Execute(context.Background(), cs, m, opt)
	if err != nil {
		b.Fatal(err)
	}
	return mf.Runs
}

// modesMatrix is the four-strategy Table 2 fan-out.
var modesMatrix = experiments.TaskMatrix{Kind: "modes"}

// oneWorker runs a matrix's tasks back to back — the sequential
// reference; the zero ExecOptions is the default GOMAXPROCS pool.
var oneWorker = experiments.ExecOptions{Workers: 1}

// BenchmarkTable2 regenerates the paper's Table 2: the four allocation
// strategies on the synthetic large-circuit workload, reporting Tsim,
// μF±σF, and Tcomm per mode.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		rows := execute(b, cs, modesMatrix, oneWorker)
		if i == 0 {
			b.Logf("Table 2 (scaled: %d jobs):", cs.Workload.Synthetic.N)
			for _, r := range rows {
				b.Logf("  %-8s Tsim=%.1fs muF=%.4f±%.4f Tcomm=%.1fs k=%.2f",
					r.Mode, r.TsimS, r.FidelityMean, r.FidelityStd, r.TcommS, r.MeanDevicesPerJob)
			}
			for _, r := range rows {
				prefix := r.Mode + "_"
				b.ReportMetric(r.TsimS, prefix+"Tsim_s")
				b.ReportMetric(r.FidelityMean, prefix+"muF")
				b.ReportMetric(r.TcommS, prefix+"Tcomm_s")
			}
		}
	}
}

// BenchmarkSequentialRunAll is the single-worker baseline for the
// orchestration engine: the four strategies run back to back, policy
// pre-trained so only simulation time is measured.
func BenchmarkSequentialRunAll(b *testing.B) {
	cs := benchCase()
	cs.Workload.Synthetic.N = 400
	if _, _, err := cs.TrainRL(nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execute(b, cs, modesMatrix, oneWorker)
	}
}

// BenchmarkParallelRunAll fans the four strategies out across
// GOMAXPROCS workers and reports the wall-clock speedup over the
// sequential baseline. The four tasks are independent and similarly
// sized, so on 4+ cores the speedup approaches 4x (≈1x on one core —
// the engine adds no meaningful overhead).
func BenchmarkParallelRunAll(b *testing.B) {
	cs := benchCase()
	cs.Workload.Synthetic.N = 400
	if _, _, err := cs.TrainRL(nil); err != nil {
		b.Fatal(err)
	}
	// Baseline averaged over a few runs (bounded so the untimed work
	// doesn't balloon when the framework grows b.N).
	baseN := min(b.N, 3)
	seqStart := time.Now()
	for i := 0; i < baseN; i++ {
		execute(b, cs, modesMatrix, oneWorker)
	}
	seqAvg := time.Since(seqStart).Seconds() / float64(baseN)
	b.ResetTimer()
	parStart := time.Now()
	for i := 0; i < b.N; i++ {
		execute(b, cs, modesMatrix, experiments.ExecOptions{})
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
	cs.Workload.Synthetic.N = 150
	m := experiments.TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	baseN := min(b.N, 3)
	seqStart := time.Now()
	for i := 0; i < baseN; i++ {
		execute(b, cs, m, oneWorker)
	}
	seqAvg := time.Since(seqStart).Seconds() / float64(baseN)
	b.ResetTimer()
	parStart := time.Now()
	for i := 0; i < b.N; i++ {
		execute(b, cs, m, experiments.ExecOptions{})
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
		runs := make(map[string]*experiments.ModeRun, len(experiments.Modes))
		for _, mode := range experiments.Modes {
			run, err := cs.RunMode(mode)
			if err != nil {
				b.Fatal(err)
			}
			runs[mode] = run
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
		cs.Workload.Synthetic.N = 60
		points := execute(b, cs,
			experiments.TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.85, 0.90, 0.95, 1.0}}, oneWorker)
		if i == 0 {
			for _, p := range points {
				b.Logf("phi=%.2f -> muF=%.4f", p.Param, p.FidelityMean)
				b.ReportMetric(p.FidelityMean, fmt.Sprintf("muF_phi_%.2f", p.Param))
			}
		}
	}
}

// BenchmarkAblationLambdaSweep sweeps the Eq. 9 per-qubit latency λ.
func BenchmarkAblationLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := benchCase()
		cs.Workload.Synthetic.N = 60
		points := execute(b, cs,
			experiments.TaskMatrix{Kind: "lambda-sweep", Mode: "fair", Values: []float64{0.0, 0.02, 0.05, 0.1}}, oneWorker)
		if i == 0 {
			for _, p := range points {
				b.Logf("lambda=%.2f -> Tcomm=%.1f Tsim=%.1f", p.Param, p.TcommS, p.TsimS)
				b.ReportMetric(p.TcommS, fmt.Sprintf("Tcomm_lambda_%.2f", p.Param))
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
		cs.Workload.Synthetic.N = 60
		jobs, err := cs.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		env := sim.NewEnvironment()
		fleet, err := cs.BuildFleet(env)
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
		cs.Workload.Synthetic.N = 60
		rows := execute(b, cs, experiments.TaskMatrix{Kind: "rl-deploy"}, oneWorker)
		sampled, det := rows[0], rows[1]
		if i == 0 {
			b.Logf("sampled:       muF=%.4f sigma=%.4f Tcomm=%.1f",
				sampled.FidelityMean, sampled.FidelityStd, sampled.TcommS)
			b.Logf("deterministic: muF=%.4f sigma=%.4f Tcomm=%.1f",
				det.FidelityMean, det.FidelityStd, det.TcommS)
			b.ReportMetric(sampled.FidelityStd, "sampled_sigmaF")
			b.ReportMetric(det.FidelityStd, "deterministic_sigmaF")
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
		coreCfg := coreDefaultConfig()
		if drift {
			coreCfg.Drift = core.DriftConfig{IntervalS: 3600, Rel: 0.3, Seed: 17}
		}
		simEnv, err := coreNewEnv(env, fleet, policy.Fidelity{}, coreCfg)
		if err != nil {
			b.Fatal(err)
		}
		simEnv.SubmitWorkload(jobs)
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
		cs.Workload.Synthetic.N = 60
		jobs, err := cs.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		run := func(pol policy.Policy) float64 {
			env := sim.NewEnvironment()
			fleet, err := cs.BuildFleet(env)
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

// BenchmarkDecodeRecord is the ingest rung: one NDJSON job line through
// job.DecodeRecord, the decode every ingest path (stdin, TCP, HTTP)
// runs. canonical is the key order WriteNDJSON emits, read without
// reflection; fallback holds the same job with its keys reordered, so
// it goes through encoding/json. One op is one job.
func BenchmarkDecodeRecord(b *testing.B) {
	for _, bc := range []struct{ name, line string }{
		{"canonical", `{"job_id":"job-0000000","num_qubits":167,"depth":20,"num_shots":22302,"arrival_time":12.466542457635619,"two_qubit_gates":835,"tenant":"alpha"}`},
		{"fallback", `{"tenant":"alpha","two_qubit_gates":835,"arrival_time":12.466542457635619,"num_shots":22302,"depth":20,"num_qubits":167,"job_id":"job-0000000"}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			// One decode before the timer fills encoding/json's type
			// cache, so a -benchtime=1x run reads the steady state.
			if _, err := job.DecodeRecord(line, true); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if j, err := job.DecodeRecord(line, true); err != nil || j == nil {
					b.Fatalf("job %v, error %v", j, err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/job")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/job")
		})
	}
}

// table2Jobs is a table2-shaped workload of n jobs: the paper's
// synthetic distribution with Poisson arrivals.
func table2Jobs(b *testing.B, n int) []*job.QJob {
	cfg := job.DefaultSyntheticConfig()
	cfg.N, cfg.MeanInterarrival, cfg.Seed = n, 4, 1
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// reportPerJob reports jobs/s and allocs/job for b.N ops of n jobs each,
// given the MemStats read before the timed loop.
func reportPerJob(b *testing.B, n int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	jobs := float64(b.N) * float64(n)
	b.ReportMetric(jobs/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/jobs, "allocs/job")
}

// BenchmarkLoadCSV is the batch ingest rung: job.LoadCSV over a
// 20k-job table2-shaped workload file, as qcloudsim -jobs reads it.
// One op is one whole load; allocs/job falls as the workload grows,
// because a plain file loads in a fixed number of allocations.
func BenchmarkLoadCSV(b *testing.B) {
	const n = 20000
	var buf strings.Builder
	if err := job.WriteCSV(&buf, table2Jobs(b, n)); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs, err := job.LoadCSV(strings.NewReader(src)); err != nil || len(jobs) != n {
			b.Fatalf("%d jobs, error %v", len(jobs), err)
		}
	}
	b.StopTimer()
	reportPerJob(b, n, &before)
}

// BenchmarkRecordsManager is the records rung: a batch run's
// bookkeeping for 20k jobs. Each job's arrival, start and finish go
// through core.ManagerRecorder (the finish with a reused device-name
// buffer, as the broker passes it); then the Table 2 figures
// QCloudSimEnv.Run reports, and the per-job export. One op is the whole
// run's records.
func BenchmarkRecordsManager(b *testing.B) {
	const n = 20000
	jobs := table2Jobs(b, n)
	fleet := []string{"eagle-0", "eagle-1", "eagle-2", "eagle-3", "eagle-4"}
	names := make([]string, 0, len(fleet))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := records.NewManager()
		rec := core.ManagerRecorder{M: m}
		for k, j := range jobs {
			rec.Arrival(j, j.ArrivalTime)
			rec.Start(j.ID, j.ArrivalTime+1)
			names = append(names[:0], fleet[:1+k%3]...)
			rec.Finish(j.ID, j.ArrivalTime+30, 0.9, float64(len(names)-1), names)
		}
		m.FidelityMeanStd()
		m.Makespan()
		m.TotalCommTime()
		m.MeanWaitTime()
		m.MeanTurnaround()
		m.MeanDevicesPerJob()
		if err := m.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerJob(b, n, &before)
}

// discardRecorder drops every lifecycle event, so broker benches time
// the scheduler alone.
type discardRecorder struct{}

func (discardRecorder) Arrival(*job.QJob, float64)                         {}
func (discardRecorder) Start(string, float64)                              {}
func (discardRecorder) Finish(string, float64, float64, float64, []string) {}
func (discardRecorder) Drop(*job.QJob, float64, string)                    {}

// BenchmarkBrokerBackfillBacklog measures a backfill broker's
// re-dispatch over a deep queue: a wall job leaves 100 of the standard
// fleet's 635 qubits free, and 1,000 queued jobs of 130–250 qubits
// wait behind it. One op is one 100-qubit job's cycle: its admission,
// its placement, and its release, each followed by a dispatch pass
// over the whole backlog. The Speed policy sees only the one job that
// fits; the passes themselves allocate nothing (see
// core's TestBrokerBackfillPassAllocFree), so allocs/op counts the
// placement's result slice.
func BenchmarkBrokerBackfillBacklog(b *testing.B) {
	const backlog, free = 1000, 100
	env := sim.NewEnvironment()
	fleet, err := deviceFleet(env)
	if err != nil {
		b.Fatal(err)
	}
	cfg := coreDefaultConfig()
	cfg.Backfill = true
	br, err := core.NewBroker(env, fleet, policy.Speed{}, cfg, discardRecorder{}, 128)
	if err != nil {
		b.Fatal(err)
	}
	capacity := device.TotalCapacity(fleet)
	// The wall's 1e13 shots outlast any b.N of short cycles.
	br.Admit(&job.QJob{ID: "wall", NumQubits: capacity - free, Depth: 20, Shots: 1e13, TwoQubitGates: 1000})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < backlog; i++ {
		q := 130 + rng.Intn(121)
		br.Admit(&job.QJob{ID: fmt.Sprintf("backlog-%d", i), NumQubits: q, Depth: 10, Shots: 20000, TwoQubitGates: q})
	}
	short := &job.QJob{ID: "short", NumQubits: free, Depth: 5, Shots: 1000, TwoQubitGates: 50}
	cycle := func() {
		br.Admit(short)
		for br.Active() > 1 {
			if err := env.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	cycle() // warm the run pool and the event heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if br.QueueDepth() != backlog || br.Active() != 1 {
		b.Fatalf("backlog %d, active %d: the cycle disturbed the saturated fleet", br.QueueDepth(), br.Active())
	}
}

// countedFidelity is Fidelity, policy.SizeRule mark included, with its
// Allocate calls counted.
type countedFidelity struct {
	policy.Fidelity
	calls int
}

func (p *countedFidelity) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	p.calls++
	return p.Fidelity.Allocate(j, devices)
}

// BenchmarkBrokerBackfillBacklogFidelity is BenchmarkBrokerBackfillBacklog's
// backlog under the fidelity policy, whose designated set for every
// queued job (130–250 qubits: the two lowest-error devices) is held
// behind the broker's back but for 100 qubits on the best device. The
// other three devices are free, so every queued job fits in the free
// qubits and the policy is consulted, and refuses. One op is one
// 100-qubit job's cycle on the best device; calls/op counts the
// Allocate calls its admission, placement and release passes make,
// which the broker's refused-by-size memo keeps near one per distinct
// queued size rather than one per queued job.
func BenchmarkBrokerBackfillBacklogFidelity(b *testing.B) {
	const backlog, free = 1000, 100
	env := sim.NewEnvironment()
	fleet, err := deviceFleet(env)
	if err != nil {
		b.Fatal(err)
	}
	best := slices.Clone(fleet)
	slices.SortFunc(best, func(x, y *device.Device) int { return cmp.Compare(x.ErrorScore(), y.ErrorScore()) })
	var holds [2]device.Allocation
	for i, d := range best[:2] {
		q := d.NumQubits()
		if i == 0 {
			q -= free
		}
		if err := d.AllocateInto(q, &holds[i]); err != nil {
			b.Fatal(err)
		}
	}
	cfg := coreDefaultConfig()
	cfg.Backfill = true
	pol := &countedFidelity{}
	br, err := core.NewBroker(env, fleet, pol, cfg, discardRecorder{}, 128)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < backlog; i++ {
		q := 130 + rng.Intn(121)
		br.Admit(&job.QJob{ID: fmt.Sprintf("backlog-%d", i), NumQubits: q, Depth: 10, Shots: 20000, TwoQubitGates: q})
	}
	short := &job.QJob{ID: "short", NumQubits: free, Depth: 5, Shots: 1000, TwoQubitGates: 50}
	cycle := func() {
		br.Admit(short)
		if br.Active() != 1 {
			b.Fatal("fidelity did not place the short job on the best device")
		}
		for br.Active() > 0 {
			if err := env.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	cycle() // warm the run pool and the event heap
	pol.calls = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(pol.calls)/float64(b.N), "calls/op")
	if br.QueueDepth() != backlog {
		b.Fatalf("backlog %d: the cycle placed a queued job", br.QueueDepth())
	}
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

// BenchmarkPolicyInference measures single-sample action selection on
// the policy-network shape: /act is the deployment path (ActInto, the
// actor alone) and /sample the training path (SampleInto, which adds
// the log probability and the critic). Both allocate nothing.
func BenchmarkPolicyInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol := rl.NewGaussianPolicy(rng, rlsched.StateDim, rlsched.NumDevices, 64, 64)
	obs := make([]float64, rlsched.StateDim)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	action := make([]float64, rlsched.NumDevices)
	b.Run("act", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pol.ActInto(rng, obs, action)
		}
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pol.SampleInto(rng, obs, action)
		}
	})
}

// BenchmarkPolicyAllocate is the policy rung of the benchmark ladder:
// one Allocate per op for each Table 2 mode, on an idle five-Eagle
// snapshot, over table2-shaped jobs (130–250 qubits, depth 5–20,
// t2 = q·d/4). rlbase runs an untrained 64-64 actor: inference costs
// the same whatever the weights. allocs/op counts the returned
// allocation (and, for rlbase, Apportion's shares). fidelity-reject is
// the backfill pass's common call: the two lowest-error devices are
// full, so fidelity waits on every job although the fleet has room.
func BenchmarkPolicyAllocate(b *testing.B) {
	env := sim.NewEnvironment()
	fleet, err := deviceFleet(env)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]policy.DeviceState, len(fleet))
	for i, d := range fleet {
		eps1Q, eps2Q, epsRO := d.MeanErrors()
		states[i] = policy.DeviceState{
			Index: i, Name: d.Name(),
			Free: d.FreeQubits(), Capacity: d.NumQubits(),
			ErrorScore: d.ErrorScore(), CLOPS: d.CLOPS(),
			Eps1Q: eps1Q, Eps2Q: eps2Q, EpsRO: epsRO,
		}
	}
	policy.RankByError(states)
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*job.QJob, 1024)
	for i := range jobs {
		q, d := 130+rng.Intn(121), 5+rng.Intn(16)
		jobs[i] = &job.QJob{ID: fmt.Sprintf("j%d", i), NumQubits: q, Depth: d,
			Shots: 10000 + rng.Intn(90001), TwoQubitGates: (q*d + 2) / 4}
	}
	model := rl.NewGaussianPolicy(rng, rlsched.StateDim, rlsched.NumDevices, 64, 64)
	for _, name := range []string{"speed", "fidelity", "fair", "rlbase"} {
		b.Run(name, func(b *testing.B) {
			pol, err := policy.New(name, policy.Params{Model: rlsched.Deploy(model), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pol.Allocate(jobs[i%len(jobs)], states) == nil {
					b.Fatal("an idle fleet refused a table2 job")
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
	busy := slices.Clone(states)
	for i := range busy {
		if busy[i].ErrorRank < 2 {
			busy[i].Free = 0
		}
	}
	b.Run("fidelity-reject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if (policy.Fidelity{}).Allocate(jobs[i%len(jobs)], busy) != nil {
				b.Fatal("fidelity placed a job with its designated devices full")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
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

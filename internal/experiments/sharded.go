package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/experiments/shard"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/rl"
)

// ShardSpec is the JSON-portable description of one orchestrated run:
// the full case-study configuration plus the task matrix. It is the
// opaque spec a shard coordinator ships to every worker process, and it
// pins everything a worker needs to reproduce its tasks bit-identically
// — all random streams derive from the seeds captured here, including
// the rlbase policy, which each worker (re)trains deterministically
// from PPO.Seed when its subset needs it.
type ShardSpec struct {
	Workload    job.SyntheticConfig `json:"workload"`
	Core        core.Config         `json:"core"`
	FleetPreset string              `json:"fleet_preset,omitempty"`
	// TracePath replays a workload trace instead of the synthetic
	// generator; worker processes resolve it against their working
	// directory, which the coordinator shares with them.
	TracePath       string       `json:"trace_path,omitempty"`
	FleetSeed       int64        `json:"fleet_seed"`
	TrainSteps      int          `json:"train_steps"`
	PPO             rl.PPOConfig `json:"ppo"`
	RLSeed          int64        `json:"rl_seed"`
	RLDeterministic bool         `json:"rl_deterministic"`
	// Matrix enumerates the run's tasks; workers expand it exactly like
	// the in-process executors do.
	Matrix TaskMatrix `json:"matrix"`
	// Workers sizes each worker process's in-process pool (<= 1 means
	// sequential within the worker; parallelism normally comes from the
	// process fan-out itself).
	Workers int `json:"workers,omitempty"`
}

// shardSpec captures the case study's portable configuration.
func (cs *CaseStudy) shardSpec(m TaskMatrix, workers int) ShardSpec {
	return ShardSpec{
		Workload:        cs.Workload,
		Core:            cs.Core,
		FleetPreset:     cs.FleetPreset,
		TracePath:       cs.TracePath,
		FleetSeed:       cs.FleetSeed,
		TrainSteps:      cs.TrainSteps,
		PPO:             cs.PPO,
		RLSeed:          cs.RLSeed,
		RLDeterministic: cs.RLDeterministic,
		Matrix:          m,
		Workers:         workers,
	}
}

// caseStudy reconstructs the worker-side case study.
func (s ShardSpec) caseStudy() *CaseStudy {
	return &CaseStudy{
		Workload:        s.Workload,
		Core:            s.Core,
		FleetPreset:     s.FleetPreset,
		TracePath:       s.TracePath,
		FleetSeed:       s.FleetSeed,
		TrainSteps:      s.TrainSteps,
		PPO:             s.PPO,
		RLSeed:          s.RLSeed,
		RLDeterministic: s.RLDeterministic,
	}
}

// Fault-injection hooks for the worker daemon, used by the fault
// tolerance tests (and usable against a real run to rehearse failure
// semantics). Both make the daemon kill itself after streaming an
// order's first result — mid-shard, so the coordinator sees a crashed
// worker with the shard only partially delivered:
//
//	EXPERIMENTS_SHARD_CRASH_ONCE=<path>  only the first order to create
//	                                     <path> crashes; later orders
//	                                     find the file and run clean.
//	EXPERIMENTS_SHARD_CRASH_ALWAYS=1     every order crashes, so
//	                                     retries are exhausted.
const (
	crashOnceEnv   = "EXPERIMENTS_SHARD_CRASH_ONCE"
	crashAlwaysEnv = "EXPERIMENTS_SHARD_CRASH_ALWAYS"
)

// crashArmed reports whether this daemon should self-kill after the
// current order's first emitted result.
func crashArmed() bool {
	if os.Getenv(crashAlwaysEnv) == "1" {
		return true
	}
	if path := os.Getenv(crashOnceEnv); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return false // a previous worker already took the crash
		}
		f.Close() //lint:allow errlint nothing was written to the crash sentinel; close cannot lose data
		return true
	}
	return false
}

// ShardServer returns the experiments worker daemon behind
// `experiments -serve`, which every Sharded and Remote run talks to.
// capacity is the advertised per-order pool size reported to -doctor
// probes; logf (nil for silent) receives one line per connection
// event.
func ShardServer(capacity int, logf func(format string, args ...any)) *shard.Server {
	return &shard.Server{Run: shardRunFunc, Capacity: capacity, Logf: logf}
}

// shardRunFunc is the worker-side task engine: it decodes the
// ShardSpec, re-enumerates the task matrix, verifies the coordinator's
// labels against its own enumeration (a mismatch means the two
// processes disagree about the experiment and nothing may run), trains
// the rlbase policy once iff its assigned subset contains an rlbase
// task, and streams one manifest row per finished task.
func shardRunFunc(ctx context.Context, raw []byte, indices []int, labels []string, emit func(int, records.RunSummary) error) error {
	var spec ShardSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("experiments: decoding shard spec: %w", err)
	}
	cs := spec.caseStudy()
	specs, err := spec.Matrix.specs()
	if err != nil {
		return err
	}
	tasks := make([]runner.Task[RunArtifact], len(specs))
	needsRL := false
	for j, i := range indices {
		if i < 0 || i >= len(specs) {
			return fmt.Errorf("experiments: shard order index %d outside task matrix of %d", i, len(specs))
		}
		if specs[i].id != labels[j] {
			return fmt.Errorf("experiments: shard order label %q != enumerated task %q at index %d", labels[j], specs[i].id, i)
		}
		if policy.NeedsModel(specs[i].mode) {
			needsRL = true
		}
	}
	if needsRL {
		if err := cs.ensureTrained("rlbase"); err != nil {
			return fmt.Errorf("experiments: training rlbase: %w", err)
		}
	}
	for i, s := range specs {
		tasks[i] = cs.task(s)
	}
	sub, err := runner.Subset(tasks, indices)
	if err != nil {
		return err
	}
	// Stream each finished task through emit immediately: results
	// delivered before a crash survive it, so a respawned worker
	// only re-runs the genuinely unfinished remainder.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	die := crashArmed()
	var mu sync.Mutex
	var emitErr error
	pool := runner.Pool[RunArtifact]{
		Workers: max(1, spec.Workers),
		OnResult: func(j int, art RunArtifact) {
			if err := emit(indices[j], art.Summary()); err != nil {
				mu.Lock()
				if emitErr == nil {
					emitErr = err
				}
				mu.Unlock()
				cancel()
				return
			}
			if die {
				os.Exit(3) // injected fault: die mid-shard, after one result
			}
		},
	}
	_, runErr := pool.Run(wctx, sub)
	mu.Lock()
	defer mu.Unlock()
	if emitErr != nil {
		return emitErr
	}
	return runErr
}

// ShardOptions configures the Sharded executor. The knobs shared with
// in-process execution (Workers, Retries, OnProgress) live in the
// embedded ExecOptions; here Workers sizes each worker daemon's
// per-order pool (<= 1 runs a worker's tasks sequentially — the usual
// choice, since parallelism comes from the process fan-out) and
// OnProgress receives one callback per finished task, translated from
// coordinator result events.
type ShardOptions struct {
	ExecOptions
	// Shards is the worker process count; <= 0 means 1.
	Shards int
	// Command returns a fresh worker daemon command, one per shard
	// attempt. Nil re-invokes the current executable with
	// `-serve 127.0.0.1:0`, which is correct for the experiments binary
	// and any binary that wires that flag to ShardServer's
	// ListenAndServe.
	Command func(ctx context.Context) *exec.Cmd
	// OnEvent, if set, receives raw coordinator lifecycle events
	// (spawn/result/retry/done) beyond the per-task OnProgress stream.
	OnEvent func(shard.Progress)
	// Stderr receives worker stderr; nil means os.Stderr.
	Stderr io.Writer
}

func (o ShardOptions) command() func(ctx context.Context) *exec.Cmd {
	if o.Command != nil {
		return o.Command
	}
	return func(ctx context.Context) *exec.Cmd {
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		return exec.CommandContext(ctx, exe, "-serve", "127.0.0.1:0")
	}
}

// Sharded executes a task matrix through the shard coordinator on
// worker daemons it spawns on loopback, one per shard attempt, and
// returns the merged manifest in global task order. The zero value
// re-invokes the current executable with `-serve 127.0.0.1:0` on a
// single shard; set Options.Shards to fan out. The merge fails loudly
// if crash retries ever produced a duplicate or dropped a task, so a
// returned manifest is complete by construction. Results are
// bit-identical to the in-process executors (wall times aside):
// workers rebuild the exact per-task snapshots from the ShardSpec's
// seeds through the same TaskMatrix enumeration.
type Sharded struct {
	Options ShardOptions
}

// Name implements Executor.
func (Sharded) Name() string { return "sharded" }

// Execute implements Executor.
func (e Sharded) Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix) (*records.RunManifest, error) {
	opt := e.Options
	t := &shard.ProcessTransport{Command: opt.command(), Stderr: opt.Stderr}
	return cs.runOnDaemons(ctx, m, opt.ExecOptions, opt.Shards, t, opt.OnEvent)
}

// runOnDaemons is the one execution path behind Sharded and Remote,
// which differ only in the transport: it validates the matrix for
// out-of-process execution, serializes its portable spec, and runs it
// through the shard coordinator. onEvent receives raw coordinator
// events; opt.OnProgress gets one callback per result event, with wall
// time left zero because it is spent in the worker, not here.
func (cs *CaseStudy) runOnDaemons(ctx context.Context, m TaskMatrix, opt ExecOptions, shards int, t shard.Transport, onEvent func(shard.Progress)) (*records.RunManifest, error) {
	labels, err := m.TaskLabels()
	if err != nil {
		return nil, err
	}
	// An injected policy (UseTrainedPolicy) never reaches worker
	// processes — they retrain from PPO.Seed — so running rlbase tasks
	// with one would silently break the bit-identical guarantee.
	if cs.injected {
		for _, mode := range m.modes() {
			if policy.NeedsModel(mode) {
				return nil, fmt.Errorf("experiments: sharded execution cannot use a policy injected via UseTrainedPolicy; workers retrain from the serialized config (train in-process instead, or drop rlbase from the matrix)")
			}
		}
	}
	// Duplicate task IDs (e.g. a repeated replication seed) would only
	// surface in the final merge, after every simulation already ran;
	// reject them before any worker is spawned.
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if seen[l] {
			return nil, fmt.Errorf("experiments: task matrix enumerates %q twice; sharded runs need unique task IDs", l)
		}
		seen[l] = true
	}
	spec, err := json.Marshal(cs.shardSpec(m, opt.Workers))
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding shard spec: %w", err)
	}
	coord := shard.Coordinator{Shards: shards, Retries: opt.Retries, Transport: t, PerShardWorkers: opt.Workers}
	if onEvent != nil || opt.OnProgress != nil {
		coord.OnProgress = func(p shard.Progress) {
			if onEvent != nil {
				onEvent(p)
			}
			if opt.OnProgress != nil && p.Event == "result" {
				opt.OnProgress(runner.Progress{Index: p.Index, Label: p.Label, Done: p.Done, Total: p.Total})
			}
		}
	}
	return coord.Run(ctx, m.Label(), spec, labels)
}

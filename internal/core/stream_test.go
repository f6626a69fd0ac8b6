package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// admitWorkload drives a broker through a finite workload in logical
// (scaled) time: advance to each arrival, admit, then drain — the
// deterministic serve mode the CI byte-identity gate runs.
func admitWorkload(t *testing.T, b *Broker, jobs []*job.QJob) {
	t.Helper()
	env := b.Env()
	for _, j := range jobs {
		if j.ArrivalTime > env.Now() {
			env.AdvanceTo(j.ArrivalTime)
		}
		b.Admit(j)
	}
	if _, err := b.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// batchCSV runs the batch front end (arrival chain, Run) and exports its
// per-job records.
func batchCSV(t *testing.T, jobs []*job.QJob, mkPol func() policy.Policy, cfg Config) []byte {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewQCloudSimEnv(env, fleet, mkPol(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(jobs)
	if _, err := e.Run(); err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	var buf bytes.Buffer
	if err := e.Records.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// brokerCSV runs the same workload through the streaming broker and
// exports the records collected via the Manager adapter.
func brokerCSV(t *testing.T, jobs []*job.QJob, mkPol func() policy.Policy, cfg Config) []byte {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	rec := records.NewManager()
	b, err := NewBroker(env, fleet, mkPol(), cfg, ManagerRecorder{M: rec}, 256)
	if err != nil {
		t.Fatal(err)
	}
	admitWorkload(t, b, jobs)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Serve-style admission (the driver advancing the clock to each arrival)
// and the batch front end's arrival chain must make the same dispatch
// decisions with the same float arithmetic: byte-identical per-job
// records. TestBatchRecordsPinned holds the batch side to its pinned
// digests.
func TestBrokerMatchesBatchRecords(t *testing.T) {
	jobs := smallWorkload(t, 60)
	cases := []struct {
		name     string
		mkPol    func() policy.Policy
		backfill bool
	}{
		{"speed", func() policy.Policy { return policy.Speed{} }, false},
		{"fair", func() policy.Policy { return policy.Fair{} }, false},
		{"fidelity", func() policy.Policy { return policy.Fidelity{} }, false},
		{"fidelity-backfill", func() policy.Policy { return policy.Fidelity{} }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backfill = c.backfill
			batch := batchCSV(t, jobs, c.mkPol, cfg)
			serve := brokerCSV(t, jobs, c.mkPol, cfg)
			if !bytes.Equal(batch, serve) {
				t.Fatalf("broker records diverge from batch:\nbatch:\n%s\nserve:\n%s", batch, serve)
			}
		})
	}
}

// The RL policy samples its action distribution on every placement, so
// identical records additionally prove the broker consumes the policy's
// RNG stream identically under both drivers.
func TestBrokerMatchesBatchRecordsRLBase(t *testing.T) {
	jobs := smallWorkload(t, 40)
	trained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	mkPol := func() policy.Policy { return rlsched.NewRLPolicy(trained, 11) }
	cfg := DefaultConfig()
	batch := batchCSV(t, jobs, mkPol, cfg)
	serve := brokerCSV(t, jobs, mkPol, cfg)
	if !bytes.Equal(batch, serve) {
		t.Fatal("rlbase broker records diverge from batch")
	}
}

func TestBrokerCountsAndWindows(t *testing.T) {
	jobs := smallWorkload(t, 30)
	for i, j := range jobs {
		if i%3 == 0 {
			j.Tenant = "acme"
		}
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	rec := records.NewManager()
	b, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), ManagerRecorder{M: rec}, 16)
	if err != nil {
		t.Fatal(err)
	}
	admitWorkload(t, b, jobs)
	if b.Admitted() != 30 || b.Finished() != 30 {
		t.Fatalf("admitted=%d finished=%d", b.Admitted(), b.Finished())
	}
	if !b.Quiescent() || b.Active() != 0 || b.QueueDepth() != 0 {
		t.Fatalf("broker not quiescent after drain: active=%d depth=%d", b.Active(), b.QueueDepth())
	}
	tw := b.Windows()
	if tw.Global().Len() != 16 {
		t.Fatalf("global window holds %d, want capacity 16", tw.Global().Len())
	}
	if got := tw.Tenants(); len(got) != 2 || got[0] != "acme" || got[1] != "default" {
		t.Fatalf("tenants = %v", got)
	}
	sum := tw.Tenant("acme").Summary(env.Now())
	if sum.Count != 10 || sum.Throughput <= 0 {
		t.Fatalf("acme summary = %+v", sum)
	}
	if device.TotalFree(fleet) != 635 {
		t.Fatalf("qubits leaked: free = %d", device.TotalFree(fleet))
	}
}

func TestBrokerDrainReportsUnplaceable(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), ManagerRecorder{M: records.NewManager()}, 16)
	if err != nil {
		t.Fatal(err)
	}
	b.Admit(&job.QJob{ID: "too-big", NumQubits: 700, Depth: 5, Shots: 1000, TwoQubitGates: 1})
	if _, err := b.Drain(); err == nil {
		t.Fatal("oversized job should surface a drain error")
	}
	if b.QueueDepth() != 1 {
		t.Fatalf("depth = %d", b.QueueDepth())
	}
}

func TestNewBrokerValidation(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := ManagerRecorder{M: records.NewManager()}
	if _, err := NewBroker(env, nil, policy.Speed{}, DefaultConfig(), rec, 16); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewBroker(env, fleet, nil, DefaultConfig(), rec, 16); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), nil, 16); err == nil {
		t.Error("nil recorder accepted")
	}
	if _, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), rec, 0); err == nil {
		t.Error("zero window capacity accepted")
	}
	drifting := DefaultConfig()
	drifting.Drift = DriftConfig{IntervalS: 100, Rel: 0.01}
	if _, err := NewBroker(env, fleet, policy.Speed{}, drifting, rec, 16); err == nil {
		t.Error("calibration drift accepted in broker mode")
	}
}

// captureRecorder flattens finish records for order-sensitive equality
// checks across checkpoint boundaries.
type captureRecorder struct{ rows []string }

func (r *captureRecorder) Arrival(*job.QJob, float64)      {}
func (r *captureRecorder) Start(string, float64)           {}
func (r *captureRecorder) Drop(*job.QJob, float64, string) {}
func (r *captureRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	r.rows = append(r.rows, fmt.Sprintf("%s|%.17g|%.17g|%.17g|%s",
		jobID, finish, fidelity, commTime, strings.Join(deviceNames, "+")))
}

// A checkpointed broker restored into a fresh process must continue the
// stream exactly: the concatenated finish records of the two segments
// equal the uninterrupted run's, including the RL policy's RNG position.
func TestBrokerCheckpointResume(t *testing.T) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 24
	cfg.Seed = 9
	// Wide spacing keeps the fleet idle at the split point so the
	// checkpoint lands on a quiescent broker.
	cfg.MeanInterarrival = 5000
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained := rl.NewGaussianPolicy(rand.New(rand.NewSource(5)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	const seed = 42
	coreCfg := DefaultConfig()

	// Uninterrupted reference run.
	full := &captureRecorder{}
	{
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, rlsched.NewRLPolicy(trained, seed), coreCfg, full, 64)
		if err != nil {
			t.Fatal(err)
		}
		admitWorkload(t, b, jobs)
	}

	// Segment 1: first half, drain, checkpoint, serialize.
	const split = 12
	seg := &captureRecorder{}
	var cpBuf bytes.Buffer
	{
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, rlsched.NewRLPolicy(trained, seed), coreCfg, seg, 64)
		if err != nil {
			t.Fatal(err)
		}
		admitWorkload(t, b, jobs[:split])
		if jobs[split].ArrivalTime < env.Now() {
			t.Fatalf("split point not quiescent: next arrival %g before drain end %g",
				jobs[split].ArrivalTime, env.Now())
		}
		cp, err := b.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := cp.Encode(&cpBuf); err != nil {
			t.Fatal(err)
		}
	}

	// Segment 2: fresh environment/fleet/policy restored from the
	// serialized checkpoint, then the rest of the stream.
	{
		cp, err := DecodeCheckpoint(&cpBuf)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Admitted != split || cp.Finished != split {
			t.Fatalf("checkpoint counters: %+v", cp)
		}
		env := sim.NewEnvironmentAt(cp.SimNow)
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, rlsched.NewRLPolicy(trained, 0), coreCfg, seg, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(cp); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		for i, d := range fleet {
			busy, last, runs := d.UtilizationState()
			dc := cp.Devices[i]
			if busy != dc.BusyTime || last != dc.LastT || runs != dc.JobsRun {
				t.Fatalf("device %s utilization not restored", d.Name())
			}
		}
		admitWorkload(t, b, jobs[split:])
		if b.Admitted() != len(jobs) || b.Finished() != len(jobs) {
			t.Fatalf("resumed counters: admitted=%d finished=%d", b.Admitted(), b.Finished())
		}
	}

	if len(seg.rows) != len(full.rows) {
		t.Fatalf("segmented run finished %d jobs, reference %d", len(seg.rows), len(full.rows))
	}
	for i := range full.rows {
		if seg.rows[i] != full.rows[i] {
			t.Fatalf("row %d diverges after resume:\nsegmented: %s\nreference: %s",
				i, seg.rows[i], full.rows[i])
		}
	}
}

func TestBrokerRestoreValidation(t *testing.T) {
	mk := func(env *sim.Environment) *Broker {
		t.Helper()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), &captureRecorder{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := mk(sim.NewEnvironment())
	b.Admit(&job.QJob{ID: "j", NumQubits: 100, Depth: 5, Shots: 1000, TwoQubitGates: 1})
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	cp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := mk(sim.NewEnvironment()).Restore(cp); err == nil {
		t.Error("clock mismatch accepted")
	}
	if err := b.Restore(cp); err == nil {
		t.Error("restore into used broker accepted")
	}
	env := sim.NewEnvironmentAt(cp.SimNow)
	fleet, _ := device.StandardFleet(env, 2025)
	other, err := NewBroker(env, fleet, policy.Fair{}, DefaultConfig(), &captureRecorder{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(cp); err == nil {
		t.Error("policy mismatch accepted")
	}
	bad := *cp
	bad.Version = 99
	env2 := sim.NewEnvironmentAt(cp.SimNow)
	if err := mk(env2).Restore(&bad); err == nil {
		t.Error("version mismatch accepted")
	}
}

// nopRecorder is the zero-overhead recorder used by the allocation gate.
type nopRecorder struct{}

func (nopRecorder) Arrival(*job.QJob, float64)                         {}
func (nopRecorder) Start(string, float64)                              {}
func (nopRecorder) Finish(string, float64, float64, float64, []string) {}
func (nopRecorder) Drop(*job.QJob, float64, string)                    {}

// fillPolicy is an allocation-free greedy policy standing in for any
// well-behaved zero-alloc policy (the shipped heuristics build their
// result slices per call, which would mask broker regressions).
type fillPolicy struct{ allocs []policy.Allocation }

func (p *fillPolicy) Name() string { return "fill" }

func (p *fillPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	out := p.allocs[:0]
	need := j.NumQubits
	for _, d := range devices {
		if need == 0 {
			break
		}
		take := d.Free
		if take > need {
			take = need
		}
		if take > 0 {
			out = append(out, policy.Allocation{DeviceIndex: d.Index, Qubits: take})
			need -= take
		}
	}
	if need > 0 {
		return nil
	}
	p.allocs = out
	return out
}

func newSteadyStateBroker(tb testing.TB) *Broker {
	tb.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		tb.Fatal(err)
	}
	pol := &fillPolicy{allocs: make([]policy.Allocation, 0, len(fleet))}
	b, err := NewBroker(env, fleet, pol, DefaultConfig(), nopRecorder{}, 128)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// The broker's steady-state admit→schedule→complete cycle — heap
// operations, reservation, timers, fidelity, release, window metrics —
// must be allocation-free. This is the ISSUE's hard acceptance gate;
// CI also runs BenchmarkBrokerSteadyState under -benchmem.
func TestBrokerSteadyStateAllocFree(t *testing.T) {
	b := newSteadyStateBroker(t)
	j := &job.QJob{ID: "steady", NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750}
	// Warm the run pool, pending slice, event heap, and tenant window.
	for i := 0; i < 64; i++ {
		b.Admit(j)
		b.Env().Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		b.Admit(j)
		b.Env().Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state broker cycle allocates %.2f/op, want 0", avg)
	}
	if b.Finished() != b.Admitted() {
		t.Fatalf("cycle imbalance: admitted=%d finished=%d", b.Admitted(), b.Finished())
	}
}

// BenchmarkBrokerSteadyState measures one full admit→complete broker
// cycle; CI greps its -benchmem output for "0 allocs/op".
func BenchmarkBrokerSteadyState(b *testing.B) {
	br := newSteadyStateBroker(b)
	j := &job.QJob{ID: "steady", NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750}
	for i := 0; i < 64; i++ {
		br.Admit(j)
		br.Env().Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Admit(j)
		br.Env().Run()
	}
}

// dupPolicy violates the Policy contract by placing both halves of a
// job on the same device.
type dupPolicy struct{}

func (dupPolicy) Name() string { return "dup" }

func (dupPolicy) Allocate(j *job.QJob, _ []policy.DeviceState) []policy.Allocation {
	half := j.NumQubits / 2
	return []policy.Allocation{{DeviceIndex: 0, Qubits: half}, {DeviceIndex: 0, Qubits: j.NumQubits - half}}
}

// An invalid allocation is a policy bug: dispatch panics with the
// policy's name and policy.Validate's reason instead of reserving it.
func TestBrokerPanicsOnInvalidAllocation(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(env, fleet, dupPolicy{}, DefaultConfig(), nopRecorder{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		const want = `core: policy "dup" produced invalid allocation: policy: device 0 assigned twice`
		if msg != want {
			t.Fatalf("panic = %q, want %q", msg, want)
		}
		if device.TotalFree(fleet) != 635 {
			t.Fatalf("invalid allocation reserved qubits: free = %d", device.TotalFree(fleet))
		}
	}()
	b.Admit(&job.QJob{ID: "dup", NumQubits: 100, Depth: 5, Shots: 1000, TwoQubitGates: 1})
}

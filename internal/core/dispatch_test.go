package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// countingPolicy wraps a policy and counts its Allocate calls, noting
// those made for a job larger than the snapshot's free qubits.
type countingPolicy struct {
	policy.Policy
	calls, oversized int
	perJob           map[string]int // per-job call counts; nil: untracked
}

func (p *countingPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	p.calls++
	free := 0
	for _, d := range devices {
		free += d.Free
	}
	if j.NumQubits > free {
		p.oversized++
	}
	if p.perJob != nil {
		p.perJob[j.ID]++
	}
	return p.Policy.Allocate(j, devices)
}

// The broker never asks the policy to place a job larger than the
// fleet's free qubits. Speed places a job exactly when it fits, so each
// job costs one call — the one that places it — in FIFO and backfill
// mode alike.
func TestDispatchSkipsOversizedJobs(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		pol := &countingPolicy{Policy: policy.Speed{}, perJob: make(map[string]int)}
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Backfill = backfill
		e, err := NewQCloudSimEnv(env, fleet, pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs := backfillJobs()
		e.SubmitWorkload(jobs)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if pol.oversized != 0 {
			t.Errorf("backfill=%v: %d Allocate calls for jobs larger than the free qubits", backfill, pol.oversized)
		}
		for _, j := range jobs {
			if n := pol.perJob[j.ID]; n != 1 {
				t.Errorf("backfill=%v: %s saw %d Allocate calls, want 1", backfill, j.ID, n)
			}
		}
	}
}

// randomStates draws a ranked fleet snapshot of 1..5 devices (rlbase
// encodes at most five) with arbitrary occupancy, scores and
// utilization.
func randomStates(rng *rand.Rand) []policy.DeviceState {
	names := []string{"ibm_strasbourg", "ibm_brussels", "ibm_kyiv", "ibm_quebec", "ibm_kawasaki"}
	out := make([]policy.DeviceState, 1+rng.Intn(len(names)))
	for i := range out {
		capacity := 27 + rng.Intn(101)
		out[i] = policy.DeviceState{
			Index:       i,
			Name:        names[i],
			Free:        rng.Intn(capacity + 1),
			Capacity:    capacity,
			ErrorScore:  0.005 + 0.01*rng.Float64(),
			CLOPS:       float64(20000 + rng.Intn(200000)),
			Utilization: rng.Float64(),
			Eps1Q:       1e-4 * rng.Float64(),
			Eps2Q:       1e-2 * rng.Float64(),
			EpsRO:       2e-2 * rng.Float64(),
		}
	}
	policy.RankByError(out)
	return out
}

// One snapshot serves a whole dispatch pass, so no policy may write to
// it: every named policy (rlbase on an untrained net) must leave a
// random snapshot exactly as it found it, whether it places or waits.
func TestPoliciesLeaveSnapshotUnchanged(t *testing.T) {
	untrained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	rng := rand.New(rand.NewSource(42))
	for _, name := range policy.Names() {
		params := policy.Params{Seed: 11}
		if policy.NeedsModel(name) {
			params.Model = rlsched.Deploy(untrained)
		}
		pol, err := policy.New(name, params)
		if err != nil {
			t.Fatal(err)
		}
		placed := 0
		for trial := 0; trial < 300; trial++ {
			states := randomStates(rng)
			before := slices.Clone(states)
			capacity := 0
			for _, d := range states {
				capacity += d.Capacity
			}
			q := 1 + rng.Intn(capacity+50)
			j := &job.QJob{ID: "snap", NumQubits: q, Depth: 10, Shots: 1000, TwoQubitGates: q}
			if pol.Allocate(j, states) != nil {
				placed++
			}
			if !slices.Equal(states, before) {
				t.Fatalf("%s modified the snapshot:\nbefore %+v\nafter  %+v", name, before, states)
			}
		}
		if placed == 0 {
			t.Errorf("%s placed no job in 300 trials: the snapshot check saw only waits", name)
		}
	}
}

// newBacklogBroker builds a backfill broker over the standard fleet with
// n jobs queued behind a saturated cloud. hold qubits are reserved
// behind the broker's back on the highest-error devices, worst first;
// one wall job takes every other qubit, so each backlog job
// (130–250 qubits) fits only while the hold is released.
func newBacklogBroker(tb testing.TB, pol policy.Policy, n, hold int) (*Broker, []device.Allocation) {
	tb.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backfill = true
	b, err := NewBroker(env, fleet, pol, cfg, nopRecorder{}, 128)
	if err != nil {
		tb.Fatal(err)
	}
	worst := slices.Clone(fleet)
	slices.SortFunc(worst, func(x, y *device.Device) int {
		return cmp.Compare(y.ErrorScore(), x.ErrorScore())
	})
	var holds []device.Allocation
	for _, d := range worst {
		if hold == 0 {
			break
		}
		q := min(hold, d.FreeQubits())
		holds = append(holds, device.Allocation{})
		if err := d.AllocateInto(q, &holds[len(holds)-1]); err != nil {
			tb.Fatal(err)
		}
		hold -= q
	}
	b.Admit(&job.QJob{ID: "wall", NumQubits: device.TotalFree(fleet), Depth: 10, Shots: 100000, TwoQubitGates: 100})
	if b.Active() != 1 {
		tb.Fatalf("%s did not place the wall job", pol.Name())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		q := 130 + rng.Intn(121)
		b.Admit(&job.QJob{ID: "backlog", NumQubits: q, Depth: 10, Shots: 20000, TwoQubitGates: q})
	}
	if b.QueueDepth() != n {
		tb.Fatalf("backlog of %d, want %d", b.QueueDepth(), n)
	}
	return b, holds
}

// releasePass releases the held qubits, runs the re-dispatch pass a
// job completion would, and takes the qubits back.
func releasePass(tb testing.TB, b *Broker, holds []device.Allocation) {
	for i := range holds {
		if err := holds[i].Device.ReleaseDirect(&holds[i]); err != nil {
			tb.Fatal(err)
		}
	}
	b.dispatch()
	for i := range holds {
		if err := holds[i].Device.AllocateInto(holds[i].Qubits, &holds[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

// A release that places nothing costs a pass over the whole backlog
// under backfill. That pass must not allocate, whether the policy is
// skipped (Speed: too few qubits free for any queued job) or consulted
// and rejects every job (Fidelity: the fleet has room but its
// designated low-error devices do not).
func TestBrokerBackfillPassAllocFree(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		pol         policy.Policy
		hold        int
		callsPerRun int
	}{
		{policy.Speed{}, 100, 0},
		{policy.Fidelity{}, 2 * 127, n},
	} {
		pol := &countingPolicy{Policy: c.pol}
		b, holds := newBacklogBroker(t, pol, n, c.hold)
		releasePass(t, b, holds) // warm up
		pol.calls = 0
		const runs = 50
		avg := testing.AllocsPerRun(runs, func() { releasePass(t, b, holds) })
		if avg != 0 {
			t.Errorf("%s: release + backfill pass allocates %.2f/op, want 0", c.pol.Name(), avg)
		}
		// AllocsPerRun adds one warm-up call.
		if want := (runs + 1) * c.callsPerRun; pol.calls != want {
			t.Errorf("%s: %d Allocate calls, want %d", c.pol.Name(), pol.calls, want)
		}
		if pol.oversized != 0 {
			t.Errorf("%s: %d calls for jobs larger than the free qubits", c.pol.Name(), pol.oversized)
		}
		if b.QueueDepth() != n || b.Active() != 1 {
			t.Errorf("%s: pass placed a job: queue %d, active %d", c.pol.Name(), b.QueueDepth(), b.Active())
		}
	}
}

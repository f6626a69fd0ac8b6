package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
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

// markedPolicy is a countingPolicy that forwards the policy.SizeRule
// mark, which countingPolicy's embedded interface hides: the broker
// remembers its refusals by size.
type markedPolicy struct{ *countingPolicy }

func (markedPolicy) RefusesBySize() {}

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
// designated low-error devices do not). Unmarked, Fidelity is asked
// about every queued job on every pass. With its policy.SizeRule mark
// it is asked once per distinct queued size: the marked case lets the
// broker see the holds taken back, so each release grows Free behind
// its back and must clear the refusals of the pass before.
func TestBrokerBackfillPassAllocFree(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		pol         policy.Policy
		marked      bool
		hold        int
		callsPerRun int // marked: at most, one per distinct size in 130–250
	}{
		{policy.Speed{}, false, 100, 0},
		{policy.Fidelity{}, false, 2 * 127, n},
		{policy.Fidelity{}, true, 2 * 127, 250 - 130 + 1},
	} {
		name := c.pol.Name()
		counted := &countingPolicy{Policy: c.pol}
		var pol policy.Policy = counted
		pass := func(b *Broker, holds []device.Allocation) { releasePass(t, b, holds) }
		if c.marked {
			name += " (marked)"
			pol = markedPolicy{counted}
			pass = func(b *Broker, holds []device.Allocation) {
				releasePass(t, b, holds)
				b.dispatch()
			}
		}
		b, holds := newBacklogBroker(t, pol, n, c.hold)
		want := c.callsPerRun
		if c.marked {
			if want = distinctSizes(b); want > c.callsPerRun {
				t.Fatalf("%s: %d distinct backlog sizes, want at most %d", name, want, c.callsPerRun)
			}
		}
		pass(b, holds) // warm up
		counted.calls = 0
		const runs = 50
		avg := testing.AllocsPerRun(runs, func() { pass(b, holds) })
		if avg != 0 {
			t.Errorf("%s: release + backfill pass allocates %.2f/op, want 0", name, avg)
		}
		// AllocsPerRun adds one warm-up call.
		if want := (runs + 1) * want; counted.calls != want {
			t.Errorf("%s: %d Allocate calls, want %d", name, counted.calls, want)
		}
		if counted.oversized != 0 {
			t.Errorf("%s: %d calls for jobs larger than the free qubits", name, counted.oversized)
		}
		if b.QueueDepth() != n || b.Active() != 1 {
			t.Errorf("%s: pass placed a job: queue %d, active %d", name, b.QueueDepth(), b.Active())
		}
	}
}

// distinctSizes counts the distinct qubit counts in the broker's queue.
func distinctSizes(b *Broker) int {
	seen := make(map[int]bool)
	for _, pj := range b.pending[b.head:] {
		seen[pj.j.NumQubits] = true
	}
	return len(seen)
}

// The refused-by-size memo skips only calls whose answer is known to
// be nil: Fidelity with its policy.SizeRule mark writes the same
// records as Fidelity behind a wrapper that hides the mark, over random
// small workloads in FIFO and backfill, with drift on and off, and
// asks fewer questions doing so.
func TestSizeMemoKeepsRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	backfill := DefaultConfig()
	backfill.Backfill = true
	plainCalls, markedCalls := 0, 0
	for trial := 0; trial < 6; trial++ {
		wl := job.DefaultSyntheticConfig()
		wl.N = 20 + rng.Intn(40)
		wl.Seed = rng.Int63()
		wl.MeanInterarrival = 1 + 10*rng.Float64()
		wl.MinQubits = 5 + rng.Intn(100)
		drift := DriftConfig{IntervalS: 50 + 200*rng.Float64(), Rel: 0.5, Seed: rng.Int63()}
		for _, cfg := range []Config{DefaultConfig(), backfill} {
			for _, d := range []DriftConfig{{}, drift} {
				plain := &countingPolicy{Policy: policy.Fidelity{}}
				marked := markedPolicy{&countingPolicy{Policy: policy.Fidelity{}}}
				want := pinnedDigest(t, synthetic(t, wl), plain, cfg, d)
				if got := pinnedDigest(t, synthetic(t, wl), marked, cfg, d); got != want {
					t.Errorf("workload %+v, backfill %v, drift %+v: records %s with the mark, %s without",
						wl, cfg.Backfill, d, got, want)
				}
				plainCalls += plain.calls
				markedCalls += marked.calls
			}
		}
	}
	if markedCalls >= plainCalls {
		t.Errorf("%d Allocate calls with the mark, %d without: the memo skipped nothing", markedCalls, plainCalls)
	}
}

// synthetic generates the workload wl describes.
func synthetic(t *testing.T, wl job.SyntheticConfig) []*job.QJob {
	t.Helper()
	jobs, err := job.Synthetic(wl)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// newBacklogBroker's wall job fills Fidelity's designated devices, so
// releasePass, which frees only the worst devices, never lets a queued
// job place; this fleet frees the best one instead. A refusal made
// while its qubits are held behind the broker's back is remembered, and
// releasing them behind its back makes the next pass forget it and
// place the job.
func TestSizeMemoForgetsBehindTheBackRelease(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingPolicy{Policy: policy.Fidelity{}}
	b, err := NewBroker(env, fleet, markedPolicy{counted}, DefaultConfig(), nopRecorder{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	best := slices.MinFunc(fleet, func(x, y *device.Device) int { return cmp.Compare(x.ErrorScore(), y.ErrorScore()) })
	hold := []device.Allocation{{}}
	if err := best.AllocateInto(best.NumQubits(), &hold[0]); err != nil {
		t.Fatal(err)
	}
	b.Admit(&job.QJob{ID: "a", NumQubits: 100, Depth: 10, Shots: 20000, TwoQubitGates: 100})
	b.Admit(&job.QJob{ID: "b", NumQubits: 100, Depth: 5, Shots: 1000, TwoQubitGates: 7})
	b.dispatch()
	if counted.calls != 1 || b.Active() != 0 {
		t.Fatalf("two 100-qubit jobs with the best device held: %d calls, %d placed; want 1 call, none placed",
			counted.calls, b.Active())
	}
	if err := best.ReleaseDirect(&hold[0]); err != nil {
		t.Fatal(err)
	}
	b.dispatch()
	// a places on the best device; b, asked again, finds 27 qubits there.
	if counted.calls != 3 || b.Active() != 1 || b.QueueDepth() != 1 {
		t.Errorf("after the release: %d calls, %d placed, %d queued; want 3 calls, 1 placed, 1 queued",
			counted.calls, b.Active(), b.QueueDepth())
	}
}

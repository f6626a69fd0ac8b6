package core

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// newDeepQueueBroker builds a FIFO broker over the standard fleet that
// runs one full-fleet job with n more queued behind it, and returns it
// with the job it queues.
func newDeepQueueBroker(tb testing.TB, n int) (*Broker, *job.QJob) {
	tb.Helper()
	b := newSteadyStateBroker(tb)
	j := &job.QJob{ID: "deep", NumQubits: device.TotalFree(b.Devices()), Depth: 10, Shots: 20000, TwoQubitGates: 750}
	for i := 0; i <= n; i++ {
		b.Admit(j)
	}
	if b.Active() != 1 || b.QueueDepth() != n {
		tb.Fatalf("deep queue: active %d, depth %d, want 1 and %d", b.Active(), b.QueueDepth(), n)
	}
	return b, j
}

// deepQueueOp admits j at the tail and steps the clock until one job
// finishes, whose release places the head: the depth is unchanged.
func deepQueueOp(tb testing.TB, b *Broker, j *job.QJob) {
	done := b.Finished()
	b.Admit(j)
	for b.Finished() == done {
		if err := b.Env().Step(); err != nil {
			tb.Fatalf("deep queue stalled: %v", err)
		}
	}
}

// BenchmarkBrokerQueueDepth is the depth rung: one admit→place→release
// op behind a queue of N jobs. A head pop costs amortised O(1), so ns/op
// barely moves from 10k to 100k; CI asserts 0 allocs/op at both depths
// and ns/op at 100k within 3× of 10k. A warm-up cycle grows the queue to
// its steady capacity first; -benchtime above the depth crosses at
// least one compaction.
func BenchmarkBrokerQueueDepth(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			br, j := newDeepQueueBroker(b, n)
			for i := 0; i <= n; i++ {
				deepQueueOp(b, br, j)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deepQueueOp(b, br, j)
			}
		})
	}
}

// The deep-queue cycle is allocation-free, compaction included. One
// measured run is a whole compaction cycle, so a single allocation
// anywhere in it fails the gate (AllocsPerRun rounds its average down).
func TestBrokerDeepQueueAllocFree(t *testing.T) {
	const n = 10_000
	b, j := newDeepQueueBroker(t, n)
	compactions := 0
	avg := testing.AllocsPerRun(1, func() {
		for i := 0; i <= n; i++ {
			deepQueueOp(t, b, j)
			if b.head == 0 {
				compactions++
			}
		}
	})
	if avg != 0 {
		t.Fatalf("deep-queue cycle allocates %.0f times over %d ops, want 0", avg, n+1)
	}
	// AllocsPerRun adds one warm-up run.
	if compactions < 2 {
		t.Fatalf("%d compactions in two cycles, want at least 2", compactions)
	}
	if b.QueueDepth() != n {
		t.Fatalf("depth %d, want %d", b.QueueDepth(), n)
	}
}

// deadSlotsZero fails the test unless every slot of the queue's backing
// array outside the live window pending[head:] is the zero value.
func deadSlotsZero(t *testing.T, b *Broker) {
	t.Helper()
	for i, pj := range b.pending[:cap(b.pending)] {
		if (i < b.head || i >= len(b.pending)) && pj != (pendingJob{}) {
			t.Fatalf("dead slot %d (live %d:%d, cap %d) still holds %+v", i, b.head, len(b.pending), cap(b.pending), pj)
		}
	}
}

// No job outlives its time in the queue: head pops, shed pops, backfill
// removals and compactions zero every slot they vacate, so nothing a
// placed or shed job owned stays reachable from the backing array, and
// a drained queue holds no job at all.
func TestPendingSlotsZeroedAfterDrain(t *testing.T) {
	b, holds := newBacklogBroker(t, policy.Speed{}, 300, 100)
	for i := range holds {
		if err := holds[i].Device.ReleaseDirect(&holds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetAdmission(AdmissionConfig{Policy: AdmitShed, MaxQueue: 50}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		q := 130 + rng.Intn(121)
		b.Offer(&job.QJob{ID: "burst-" + strconv.Itoa(i), NumQubits: q, Depth: 10, Shots: 20000, TwoQubitGates: q})
	}
	if b.AdmissionCounters().Shed == 0 || b.head == 0 {
		t.Fatalf("the burst left no dead prefix: %d shed, head %d", b.AdmissionCounters().Shed, b.head)
	}
	deadSlotsZero(t, b)
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if b.QueueDepth() != 0 || b.head != 0 {
		t.Fatalf("drained queue: depth %d, head %d", b.QueueDepth(), b.head)
	}
	deadSlotsZero(t, b)
}

// refQueue replays a fillPolicy broker's decisions on the plain slice
// queue the broker used before head indexing: every removal shifts the
// tail down with append. fillPolicy places a job exactly when the fleet
// has enough free qubits, so the free count alone decides. Finishes are
// taken from the broker, which owns the clock.
type refQueue struct {
	backfill bool
	maxShed  int // AdmitShed's queue limit; 0 without shedding
	free     int
	queue    []*job.QJob
	size     map[string]int
	events   []string
}

func (r *refQueue) offer(j *job.QJob) {
	if r.maxShed > 0 && len(r.queue) >= r.maxShed {
		r.events = append(r.events, "drop "+r.queue[0].ID)
		r.queue = append(r.queue[:0], r.queue[1:]...)
	}
	r.queue = append(r.queue, j)
	r.dispatch()
}

func (r *refQueue) finish(id string) {
	r.free += r.size[id]
	r.dispatch()
}

func (r *refQueue) dispatch() {
	for placed := true; placed; {
		placed = false
		for idx, j := range r.queue {
			if j.NumQubits <= r.free {
				r.events = append(r.events, "start "+j.ID)
				r.free -= j.NumQubits
				r.size[j.ID] = j.NumQubits
				r.queue = append(r.queue[:idx], r.queue[idx+1:]...)
				placed = true
				break
			}
			if !r.backfill {
				break
			}
		}
	}
}

// orderRecorder logs the broker's Start and Drop sequence and feeds its
// finishes to the reference.
type orderRecorder struct {
	ref    *refQueue
	events []string
}

func (r *orderRecorder) Arrival(*job.QJob, float64) {}
func (r *orderRecorder) Start(id string, _ float64) { r.events = append(r.events, "start "+id) }
func (r *orderRecorder) Finish(id string, _, _, _ float64, _ []string) {
	r.ref.finish(id)
}
func (r *orderRecorder) Drop(j *job.QJob, _ float64, _ string) {
	r.events = append(r.events, "drop "+j.ID)
}

// The head-indexed queue places and sheds jobs in exactly the order the
// shifting slice queue did: random small workloads under FIFO, backfill
// and shedding give the reference's Start/Drop sequence, including runs
// whose queue compacts while it still holds jobs.
func TestQueueOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	modes := []struct {
		name     string
		backfill bool
		maxShed  int
	}{
		{"fifo", false, 0},
		{"backfill", true, 0},
		{"shed", false, 6},
		{"backfill-shed", true, 4},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			liveCompactions := 0
			for trial := 0; trial < 40; trial++ {
				env := sim.NewEnvironment()
				fleet, err := device.StandardFleet(env, 2025)
				if err != nil {
					t.Fatal(err)
				}
				total := device.TotalFree(fleet)
				ref := &refQueue{backfill: m.backfill, maxShed: m.maxShed, free: total, size: map[string]int{}}
				rec := &orderRecorder{ref: ref}
				cfg := DefaultConfig()
				cfg.Backfill = m.backfill
				b, err := NewBroker(env, fleet, &fillPolicy{allocs: make([]policy.Allocation, 0, len(fleet))}, cfg, rec, 16)
				if err != nil {
					t.Fatal(err)
				}
				if m.maxShed > 0 {
					if err := b.SetAdmission(AdmissionConfig{Policy: AdmitShed, MaxQueue: m.maxShed}); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := 0, 10+rng.Intn(40); i < n; i++ {
					q := 1 + rng.Intn(total)
					j := &job.QJob{ID: "j" + strconv.Itoa(i), NumQubits: q, Depth: 5, Shots: 1000 + rng.Intn(50000), TwoQubitGates: q}
					env.AdvanceTo(env.Now() + rng.Float64()*float64(rng.Intn(3))*200)
					head := b.head
					b.Offer(j)
					ref.offer(j)
					if b.head < head && b.QueueDepth() > 0 {
						liveCompactions++
					}
				}
				for {
					head := b.head
					if env.Step() != nil {
						break
					}
					if b.head < head && b.QueueDepth() > 0 {
						liveCompactions++
					}
				}
				if !slices.Equal(rec.events, ref.events) {
					t.Fatalf("trial %d: broker order diverges from the reference queue:\nbroker:    %v\nreference: %v",
						trial, rec.events, ref.events)
				}
				if b.QueueDepth() != 0 || len(ref.queue) != 0 {
					t.Fatalf("trial %d: queues not drained: broker %d, reference %d", trial, b.QueueDepth(), len(ref.queue))
				}
			}
			if liveCompactions == 0 {
				t.Fatal("no trial compacted a non-empty queue")
			}
		})
	}
}

// blockedQueueBroker admits full-fleet jobs A–D and then tail+1 unplaceable
// jobs X0, X1, ... to a speed broker and drains it. A–D are placed, and
// X0 blocks the rest; it returns the broker and the X IDs.
func blockedQueueBroker(t *testing.T, tail int) (*Broker, []string) {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(env, fleet, policy.Speed{}, DefaultConfig(), ManagerRecorder{M: records.NewManager()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := device.TotalFree(fleet)
	for _, id := range []string{"A", "B", "C", "D"} {
		b.Admit(&job.QJob{ID: id, NumQubits: total, Depth: 5, Shots: 20000, TwoQubitGates: 100})
	}
	var blocked []string
	for i := 0; i <= tail; i++ {
		id := "X" + strconv.Itoa(i)
		b.Admit(&job.QJob{ID: id, NumQubits: total + 1, Depth: 5, Shots: 20000, TwoQubitGates: 100, Tenant: "acme"})
		blocked = append(blocked, id)
	}
	if _, err := b.Drain(); err == nil {
		t.Fatal("unplaceable jobs drained")
	}
	return b, blocked
}

// The live queue, pending[head:], holds the unplaced jobs in admission
// order, minus the placed and shed ones, whether it has a dead prefix or
// has compacted.
func TestPendingQueueOrder(t *testing.T) {
	cases := []struct {
		name      string
		tail      int
		shed      bool
		compacted bool
	}{
		// B–D popped ahead of four X jobs: head 3 of 7 slots.
		{"dead prefix", 3, false, false},
		// B–D popped ahead of two X jobs: the third pop compacts.
		{"compacted", 1, false, true},
		// Shedding X0 is the fourth pop of seven slots, which compacts.
		{"shed", 3, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, want := blockedQueueBroker(t, c.tail)
			if c.shed {
				if err := b.SetAdmission(AdmissionConfig{Policy: AdmitShed, MaxQueue: len(want)}); err != nil {
					t.Fatal(err)
				}
				late := &job.QJob{ID: "late", NumQubits: device.TotalFree(b.Devices()) + 1, Depth: 5, Shots: 20000, TwoQubitGates: 100}
				if d := b.Offer(late); d.ShedJobID != want[0] {
					t.Fatalf("shed %q, want %q", d.ShedJobID, want[0])
				}
				want = append(want[1:], late.ID)
			}
			if (b.head == 0) != c.compacted {
				t.Fatalf("head %d of %d slots, compacted want %v", b.head, len(b.pending), c.compacted)
			}
			var got []string
			for _, pj := range b.pending[b.head:] {
				got = append(got, pj.j.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("queue %v, want %v", got, want)
			}
		})
	}
}

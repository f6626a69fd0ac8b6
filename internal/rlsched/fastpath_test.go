package rlsched

import (
	"math/rand"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
)

// testJob builds a q-qubit request for the replay test.
func testJob(q int) *job.QJob {
	return &job.QJob{ID: "t", NumQubits: q, Depth: 10, Shots: 20000, TwoQubitGates: q * 2}
}

// TestObservationIntoMatchesObservation pins the allocation-free state
// encoding to the allocating one, including zero-padding of stale
// buffer contents.
func TestObservationIntoMatchesObservation(t *testing.T) {
	devs := []policy.DeviceState{
		{Free: 127, ErrorScore: 0.008, CLOPS: 220000},
		{Free: 75, ErrorScore: 0.010, CLOPS: 30000},
	}
	buf := make([]float64, StateDim)
	for i := range buf {
		buf[i] = 99 // stale garbage the fast path must overwrite
	}
	got := ObservationInto(190, devs, buf)
	want := Observation(190, devs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("obs[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { ObservationInto(190, devs, buf) }); n != 0 {
		t.Errorf("ObservationInto allocates %g/op, want 0", n)
	}

	defer func() {
		if recover() == nil {
			t.Error("expected panic for short buffer")
		}
	}()
	ObservationInto(190, devs, make([]float64, StateDim-1))
}

// TestRLPolicyAllocateDeterministicReplay checks the deployed policy's
// decisions are a pure function of (weights, seed, request stream):
// two identically seeded RLPolicy instances must produce identical
// allocations, sampled and deterministic alike.
func TestRLPolicyAllocateDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trained := rl.NewGaussianPolicy(rng, StateDim, NumDevices, 16, 16)
	states := []policy.DeviceState{
		{Index: 0, Free: 127, Capacity: 127, ErrorScore: 0.008, CLOPS: 220000},
		{Index: 1, Free: 127, Capacity: 127, ErrorScore: 0.010, CLOPS: 180000},
		{Index: 2, Free: 80, Capacity: 127, ErrorScore: 0.012, CLOPS: 30000},
		{Index: 3, Free: 127, Capacity: 127, ErrorScore: 0.009, CLOPS: 32000},
		{Index: 4, Free: 127, Capacity: 127, ErrorScore: 0.011, CLOPS: 29000},
	}
	for _, det := range []bool{false, true} {
		a := NewRLPolicy(trained.Clone(), 7)
		b := NewRLPolicy(trained.Clone(), 7)
		a.Deterministic, b.Deterministic = det, det
		for q := 130; q <= 250; q += 15 {
			j := testJob(q)
			ga := a.Allocate(j, states)
			gb := b.Allocate(j, states)
			if len(ga) != len(gb) {
				t.Fatalf("det=%v q=%d: %v vs %v", det, q, ga, gb)
			}
			for i := range ga {
				if ga[i] != gb[i] {
					t.Fatalf("det=%v q=%d alloc %d: %+v vs %+v", det, q, i, ga[i], gb[i])
				}
			}
		}
	}
}

// TestRLPolicyAllocateAllocs pins a placed rlbase decision at two
// allocations, sampled and deterministic alike: Apportion's shares and
// the returned allocation slice, sized once.
func TestRLPolicyAllocateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trained := rl.NewGaussianPolicy(rng, StateDim, NumDevices, 64, 64)
	states := []policy.DeviceState{
		{Index: 0, Free: 127, Capacity: 127, ErrorScore: 0.008, CLOPS: 220000},
		{Index: 1, Free: 127, Capacity: 127, ErrorScore: 0.010, CLOPS: 180000},
		{Index: 2, Free: 80, Capacity: 127, ErrorScore: 0.012, CLOPS: 30000},
		{Index: 3, Free: 127, Capacity: 127, ErrorScore: 0.009, CLOPS: 32000},
		{Index: 4, Free: 127, Capacity: 127, ErrorScore: 0.011, CLOPS: 29000},
	}
	j := testJob(220)
	for _, det := range []bool{false, true} {
		p := NewRLPolicy(trained, 7)
		p.Deterministic = det
		if n := testing.AllocsPerRun(100, func() {
			if p.Allocate(j, states) == nil {
				t.Fatal("an idle fleet refused the job")
			}
		}); n > 2 {
			t.Errorf("deterministic=%v: Allocate allocates %g/op, want at most 2", det, n)
		}
	}
}

package policy_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
)

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

// totalCapacity sums a snapshot's device capacities.
func totalCapacity(states []policy.DeviceState) int {
	n := 0
	for _, d := range states {
		n += d.Capacity
	}
	return n
}

// newNamed builds the named policy from the table, rlbase on an
// untrained network.
func newNamed(t *testing.T, name string) policy.Policy {
	t.Helper()
	params := policy.Params{Seed: 11}
	if policy.NeedsModel(name) {
		untrained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
		params.Model = rlsched.Deploy(untrained)
	}
	pol, err := policy.New(name, params)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// One snapshot serves a whole dispatch pass, so no policy may write to
// it: every named policy (rlbase on an untrained net) must leave a
// random snapshot exactly as it found it, whether it places or waits.
func TestPoliciesLeaveSnapshotUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, name := range policy.Names() {
		pol := newNamed(t, name)
		placed := 0
		for trial := 0; trial < 300; trial++ {
			states := randomStates(rng)
			before := slices.Clone(states)
			q := 1 + rng.Intn(totalCapacity(states)+50)
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

// Every table policy that carries the policy.SizeRule mark keeps its
// promise on random snapshots, since the broker skips the calls the
// mark lets it predict: two jobs of one size get the same placed or
// refused answer whatever their depth, shots, two-qubit gates and
// tenant; a refusal holds after random devices' Free shrinks; and a
// repeated call returns an equal result. rlbase samples on every call,
// so it must not carry the mark.
func TestSizeRulePoliciesRefuseBySize(t *testing.T) {
	if _, ok := newNamed(t, "rlbase").(policy.SizeRule); ok {
		t.Error("rlbase carries policy.SizeRule, but its answer depends on its sampling RNG")
	}
	rng := rand.New(rand.NewSource(39))
	marked := 0
	for _, name := range policy.Names() {
		pol := newNamed(t, name)
		if _, ok := pol.(policy.SizeRule); !ok {
			continue
		}
		marked++
		placed, refused := 0, 0
		for trial := 0; trial < 500; trial++ {
			states := randomStates(rng)
			q := 1 + rng.Intn(totalCapacity(states))
			a := &job.QJob{ID: "a", NumQubits: q, Depth: 10, Shots: 1000, TwoQubitGates: q}
			b := &job.QJob{ID: "b", Tenant: "other", NumQubits: q, Depth: 1 + rng.Intn(500),
				Shots: 1 + rng.Intn(100000), TwoQubitGates: rng.Intn(10 * q)}
			got := pol.Allocate(a, states)
			if again := pol.Allocate(a, states); !slices.Equal(got, again) {
				t.Fatalf("%s: repeated call on %d qubits gave %v, then %v", name, q, got, again)
			}
			if other := pol.Allocate(b, states); (other == nil) != (got == nil) {
				t.Fatalf("%s: two %d-qubit jobs on one snapshot: %v and %v\n%+v", name, q, got, other, states)
			}
			if got != nil {
				placed++
				continue
			}
			refused++
			shrunk := slices.Clone(states)
			for i := range shrunk {
				if rng.Intn(2) == 0 {
					shrunk[i].Free = rng.Intn(shrunk[i].Free + 1)
				}
			}
			if again := pol.Allocate(a, shrunk); again != nil {
				t.Fatalf("%s refused %d qubits on\n%+v\nbut placed them as %v once Free shrank to\n%+v", name, q, states, again, shrunk)
			}
		}
		if placed == 0 || refused == 0 {
			t.Errorf("%s: %d placed, %d refused in 500 trials: a property went unexercised", name, placed, refused)
		}
	}
	if marked == 0 {
		t.Error("no table policy carries policy.SizeRule")
	}
}

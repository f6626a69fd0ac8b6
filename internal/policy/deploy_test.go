package policy_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
)

// TestEveryNameBuilds: each listed name builds with New, rlbase from an
// untrained network, and the policy it builds answers to that name.
func TestEveryNameBuilds(t *testing.T) {
	untrained := rl.NewGaussianPolicy(rand.New(rand.NewSource(1)), rlsched.StateDim, rlsched.NumDevices, 8, 8)
	for _, name := range policy.Names() {
		p := policy.Params{Seed: 1}
		if policy.NeedsModel(name) {
			p.Model = rlsched.Deploy(untrained)
		}
		pol, err := policy.New(name, p)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("New(%s).Name() = %q", name, pol.Name())
		}
	}
}

// TestRLBaseNeedsModel: rlbase without a model, or with a nil network,
// is an error that names the missing model rather than a nil-pointer
// panic at the first decision.
func TestRLBaseNeedsModel(t *testing.T) {
	for _, p := range []policy.Params{{}, {Model: rlsched.Deploy(nil)}} {
		_, err := policy.New("rlbase", p)
		if err == nil || !strings.Contains(err.Error(), "trained model") {
			t.Fatalf("err = %v, want one naming the missing trained model", err)
		}
	}
}

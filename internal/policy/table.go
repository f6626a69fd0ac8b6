package policy

import "fmt"

// Params carries the deployment-time inputs a policy may need.
// Heuristic policies ignore it entirely; stochastic and learned
// policies draw their sampling seed, deployment mode, and trained model
// from here, so New can build any policy without this package
// depending on the learning stack.
type Params struct {
	// Seed seeds a stochastic policy's action sampling.
	Seed int64
	// Deterministic asks a stochastic policy to deploy mean actions
	// instead of sampling.
	Deterministic bool
	// Phi is the simulation's Eq. 8 communication penalty, for
	// fidelity-predictive policies (oracle) that must score candidate
	// allocations with the same penalty the simulation applies. Zero
	// falls back to the policy's own default.
	Phi float64
	// Model deploys the trained network of a learned policy ("rlbase"
	// takes rlsched.Deploy of its Gaussian policy); nil for heuristics.
	Model Model
}

// Model deploys a trained network as one policy instance: seed drives
// its action sampling, and deterministic asks for mean actions instead.
type Model func(seed int64, deterministic bool) Policy

// entry is one named policy: how New builds it, and whether building
// it needs Params.Model.
type entry struct {
	name       string
	needsModel bool
	build      func(Params) Policy
}

// policies is every policy a name resolves to, in name order.
var policies = [...]entry{
	{name: "fair", build: func(Params) Policy { return Fair{} }},
	{name: "fair-proportional", build: func(Params) Policy { return ProportionalFair{} }},
	{name: "fidelity", build: func(Params) Policy { return Fidelity{} }},
	{name: "oracle", build: func(p Params) Policy { return Oracle{Phi: p.Phi} }},
	{name: "rlbase", needsModel: true, build: func(p Params) Policy { return p.Model(p.Seed, p.Deterministic) }},
	{name: "speed", build: func(Params) Policy { return Speed{} }},
	{name: "speed-proportional", build: func(Params) Policy { return ProportionalSpeed{} }},
}

func lookup(name string) (entry, bool) {
	for _, e := range policies {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

// New instantiates the named policy with the given parameters. Unknown
// names list the alternatives, so a typo in a spec or flag is
// diagnosable from the error alone.
func New(name string, p Params) (Policy, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	if e.needsModel && p.Model == nil {
		return nil, fmt.Errorf("policy: building %q: it needs a trained model in Params.Model (rlsched.Deploy)", name)
	}
	return e.build(p), nil
}

// Registered reports whether name is a known policy.
func Registered(name string) bool {
	_, ok := lookup(name)
	return ok
}

// NeedsModel reports whether the named policy requires a trained model
// in Params.Model. Unknown names report false; check Registered first.
func NeedsModel(name string) bool {
	e, _ := lookup(name)
	return e.needsModel
}

// Names returns every policy name, sorted.
func Names() []string {
	out := make([]string, len(policies))
	for i, e := range policies {
		out[i] = e.name
	}
	return out
}

package device

import (
	"fmt"
	"math/rand"

	"repro/internal/calib"
	"repro/internal/graph"
	"repro/internal/sim"
)

// A fleet preset is a named, seeded fleet: everything needed to
// rebuild the same cloud is the preset name plus the calibration seed,
// which is what lets a JSON spec name a scenario's fleet. The standard
// (paper) fleet is the empty-name default.
type presetDef struct {
	// profiles lists the devices in fleet order; clops rates each one
	// by name.
	profiles []calib.Profile
	clops    map[string]float64
}

var (
	standardPreset = presetDef{calib.StandardProfiles(), calib.StandardCLOPS}
	// presets lists the named fleet presets in name order; the empty
	// name is "standard".
	presets = []struct {
		name string
		def  presetDef
	}{
		{"hetero", presetDef{heteroProfiles(), heteroCLOPS}},
		{"standard", standardPreset},
	}
)

// preset looks up the named fleet preset.
func preset(name string) (presetDef, error) {
	if name == "" {
		return standardPreset, nil
	}
	for _, p := range presets {
		if p.name == name {
			return p.def, nil
		}
	}
	return presetDef{}, fmt.Errorf("device: unknown fleet preset %q (have %v)", name, PresetNames())
}

// PresetFleet builds the named fleet preset: "" or "standard" for the
// paper's five 127-qubit devices, "hetero" for the mixed-capacity
// variant.
func PresetFleet(name string, env *sim.Environment, seed int64) ([]*Device, error) {
	p, err := preset(name)
	if err != nil {
		return nil, err
	}
	return p.build(env, seed)
}

// build makes one device per profile, in order, on a heavy-hex lattice
// of the profile's size (the Eagle lattice at 127 qubits, see
// Topology). One generator seeded with seed draws every device's
// synthetic calibration in turn. A run of same-size profiles shares
// one read-only lattice, which is built once.
func (p presetDef) build(env *sim.Environment, seed int64) ([]*Device, error) {
	rng := rand.New(rand.NewSource(seed))
	fleet := make([]*Device, 0, len(p.profiles))
	var topo *graph.Graph
	var edges [][2]int
	for _, prof := range p.profiles {
		if topo == nil || topo.NumVertices() != prof.NumQubits {
			var err error
			if topo, err = Topology("heavy-hex", prof.NumQubits); err != nil {
				return nil, err
			}
			edges = topo.Edges()
		}
		snap := calib.Synthesize(rng, prof, edges, calib.CalibrationTimestamp)
		d, err := New(env, topo, snap, p.clops[prof.Name], calib.StandardQuantumVolume)
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, d)
	}
	return fleet, nil
}

// PresetNames lists the fleet presets in name order, without the
// empty default.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// heteroProfiles describes the mixed-capacity fleet: two full Eagle
// processors backed by three smaller machines, so allocation policies
// face genuinely unequal devices (capacity, speed, and calibration all
// vary) instead of the paper's uniform 127-qubit cloud. That is
// 127+127+80+65+27 qubits (426 total, largest device 127 — the paper's
// q ∈ [130,250] workload still satisfies Eq. 1 on it). Sub-Eagle
// devices use a heavy-hex lattice trimmed to their qubit count (see
// Topology), like devices described by a Spec.
func heteroProfiles() []calib.Profile {
	return []calib.Profile{
		{
			Name: "hx_large_a", NumQubits: 127,
			MedianReadout: 0.0110, Median1Q: 2.3e-4, Median2Q: 7.2e-3,
			MedianT1: 275, MedianT2: 195, Spread: 0.30,
		},
		{
			Name: "hx_large_b", NumQubits: 127,
			MedianReadout: 0.0150, Median1Q: 2.8e-4, Median2Q: 9.5e-3,
			MedianT1: 245, MedianT2: 165, Spread: 0.30,
		},
		{
			Name: "hx_mid", NumQubits: 80,
			MedianReadout: 0.0125, Median1Q: 2.5e-4, Median2Q: 8.0e-3,
			MedianT1: 260, MedianT2: 180, Spread: 0.30,
		},
		{
			Name: "hx_small_a", NumQubits: 65,
			MedianReadout: 0.0095, Median1Q: 2.1e-4, Median2Q: 6.5e-3,
			MedianT1: 290, MedianT2: 210, Spread: 0.30,
		},
		{
			Name: "hx_small_b", NumQubits: 27,
			MedianReadout: 0.0180, Median1Q: 3.0e-4, Median2Q: 1.2e-2,
			MedianT1: 235, MedianT2: 155, Spread: 0.30,
		},
	}
}

// heteroCLOPS rates the mixed fleet: the small machines are the fast
// ones, so the speed and fidelity modes genuinely disagree about
// device ranking.
var heteroCLOPS = map[string]float64{
	"hx_large_a": 32000,
	"hx_large_b": 30000,
	"hx_mid":     180000,
	"hx_small_a": 200000,
	"hx_small_b": 220000,
}

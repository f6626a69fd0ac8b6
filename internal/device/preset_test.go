package device

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestPresetFleetStandardDefault: the empty name is the paper fleet —
// five 127-qubit devices, 635 qubits — matching the "standard" alias.
func TestPresetFleetStandardDefault(t *testing.T) {
	for _, name := range []string{"", "standard"} {
		fleet, err := PresetFleet(name, sim.NewEnvironment(), 2025)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if len(fleet) != 5 || TotalCapacity(fleet) != 635 || MaxCapacity(fleet) != 127 {
			t.Fatalf("%q: %d devices, total %d, max %d", name, len(fleet), TotalCapacity(fleet), MaxCapacity(fleet))
		}
	}
}

// TestPresetFleetHetero: the mixed-capacity preset builds with the
// capacities its profiles declare (127+127+80+65+27 qubits).
func TestPresetFleetHetero(t *testing.T) {
	fleet, err := PresetFleet("hetero", sim.NewEnvironment(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if total, maxSingle := TotalCapacity(fleet), MaxCapacity(fleet); total != 426 || maxSingle != 127 {
		t.Fatalf("hetero fleet capacity: total %d, max %d; want 426, 127", total, maxSingle)
	}
	// Capacities must genuinely differ — that is the preset's point.
	sizes := map[int]bool{}
	for _, d := range fleet {
		sizes[d.NumQubits()] = true
	}
	if len(sizes) < 3 {
		t.Fatalf("hetero fleet has only %d distinct capacities", len(sizes))
	}
}

// TestPresetFleetDeterministic: same preset and seed, same
// calibration — the property that lets every task of a run rebuild the
// same fleet from the preset name and seed alone.
func TestPresetFleetDeterministic(t *testing.T) {
	a, err := PresetFleet("hetero", sim.NewEnvironment(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PresetFleet("hetero", sim.NewEnvironment(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name() != b[i].Name() || a[i].ErrorScore() != b[i].ErrorScore() {
			t.Fatalf("device %d differs across identical builds: %s/%g vs %s/%g",
				i, a[i].Name(), a[i].ErrorScore(), b[i].Name(), b[i].ErrorScore())
		}
	}
}

// TestPresetUnknown: unknown presets fail loudly with the known names.
func TestPresetUnknown(t *testing.T) {
	if _, err := PresetFleet("warp", sim.NewEnvironment(), 1); err == nil || !strings.Contains(err.Error(), "hetero") {
		t.Fatalf("err = %v, want the preset list", err)
	}
}

package device

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/sim"
)

// specFleet is a three-device fleet over three topology kinds.
func specFleet() []Spec {
	return []Spec{
		{Name: "qpu_fast", NumQubits: 127, CLOPS: 220000, Topology: "heavy-hex",
			Calibration: CalibSpec{MedianReadout: 0.014, Median1Q: 2.6e-4, Median2Q: 9e-3, Seed: 1}},
		{Name: "qpu_clean", NumQubits: 127, CLOPS: 30000,
			Calibration: CalibSpec{MedianReadout: 0.010, Median1Q: 2.2e-4, Median2Q: 7e-3, Seed: 2}},
		{Name: "qpu_grid", NumQubits: 128, CLOPS: 50000, Topology: "grid:8x16", StrictTopology: true,
			Calibration: CalibSpec{MedianReadout: 0.012, Median1Q: 2.4e-4, Median2Q: 8e-3, Seed: 3}},
	}
}

func TestBuildFleetFromSpecs(t *testing.T) {
	fleet, err := BuildFleet(sim.NewEnvironment(), specFleet())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 3 {
		t.Fatalf("devices = %d", len(fleet))
	}
	if fleet[0].Name() != "qpu_fast" || fleet[0].CLOPS() != 220000 {
		t.Fatalf("device 0: %v", fleet[0])
	}
	if fleet[2].NumQubits() != 128 || fleet[2].Topology().NumEdges() != 8*15+7*16 {
		t.Fatalf("grid device: %d qubits, %d edges", fleet[2].NumQubits(), fleet[2].Topology().NumEdges())
	}
	if fleet[0].strict || !fleet[2].strict {
		t.Fatal("strict_topology must apply to its own device only")
	}
	for _, d := range fleet {
		if d.QuantumVolume() != calib.StandardQuantumVolume {
			t.Fatalf("%s: quantum volume %g, want the default %v", d.Name(), d.QuantumVolume(), calib.StandardQuantumVolume)
		}
	}
	// The low-error device has the lower error score, so the fidelity
	// policy prefers it.
	if fleet[1].ErrorScore() >= fleet[0].ErrorScore() {
		t.Fatal("qpu_clean should have a lower error score than qpu_fast")
	}
	// Each device draws its snapshot from its own seed with the
	// documented defaults (T1 250 µs, T2 180 µs, spread 0.3).
	s := specFleet()[1]
	want := calib.Synthesize(rand.New(rand.NewSource(s.Calibration.Seed)), calib.Profile{
		Name: s.Name, NumQubits: s.NumQubits,
		MedianReadout: s.Calibration.MedianReadout, Median1Q: s.Calibration.Median1Q, Median2Q: s.Calibration.Median2Q,
		MedianT1: 250, MedianT2: 180, Spread: 0.3,
	}, fleet[1].Topology().Edges(), calib.CalibrationTimestamp)
	if got := fleet[1].ErrorScore(); got != calib.ErrorScore(want, calib.DefaultWeights) {
		t.Fatalf("qpu_clean score %g, want %g from the default profile", got, calib.ErrorScore(want, calib.DefaultWeights))
	}
}

// Every inconsistent fleet description is refused.
func TestBuildFleetRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s []Spec) []Spec
		wantErr string
	}{
		{"no devices", func([]Spec) []Spec { return nil }, "no devices"},
		{"unnamed", func(s []Spec) []Spec { s[0].Name = ""; return s }, "has no name"},
		{"duplicate", func(s []Spec) []Spec { s[1].Name = "qpu_fast"; return s }, "duplicate device"},
		{"zero qubits", func(s []Spec) []Spec { s[0].NumQubits = 0; return s }, "0 qubits"},
		{"zero clops", func(s []Spec) []Spec { s[1].CLOPS = 0; return s }, "CLOPS"},
		{"quantum volume below two", func(s []Spec) []Spec { s[1].QuantumVolume = 1; return s }, "quantum volume"},
		{"grid mismatch", func(s []Spec) []Spec { s[2].Topology = "grid:9x16"; return s }, "grid 9x16"},
		{"unknown topology", func(s []Spec) []Spec { s[0].Topology = "donut"; return s }, "unknown topology"},
		{"zero median", func(s []Spec) []Spec { s[0].Calibration.MedianReadout = 0; return s }, "medians must be positive"},
		{"negative median", func(s []Spec) []Spec { s[2].Calibration.Median2Q = -1; return s }, "medians must be positive"},
		{"heavy-hex out of reach", func(s []Spec) []Spec { s[1].NumQubits = 5000; return s }, "heavy-hex cannot reach"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := BuildFleet(sim.NewEnvironment(), c.mutate(specFleet()))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, c.wantErr)
			}
		})
	}
}

// ValidateFleet checks topology names without building graphs, so a
// description of an absurdly large device is judged instantly.
func TestValidateFleetBuildsNoGraph(t *testing.T) {
	huge := specFleet()
	huge[0].Topology, huge[0].NumQubits = "complete", 1<<40
	huge[2].Topology, huge[2].NumQubits = "grid:1048576x1048576", 1<<40
	if err := ValidateFleet(huge); err != nil {
		t.Fatal(err)
	}
	// rows·cols overflows int to the device's qubit count; that is
	// still a mismatch.
	huge[2].Topology, huge[2].NumQubits = "grid:4294967296x4294967552", 1<<40
	if err := ValidateFleet(huge); err == nil {
		t.Fatal("overflowing grid dimensions accepted")
	}
}

func TestTopologyVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		ok   bool
	}{
		{"", 127, true},
		{"heavy-hex", 127, true},
		{"heavy-hex", 64, true},
		{"heavy-hex", 27, true},
		{"line", 10, true},
		{"complete", 8, true},
		{"grid:2x5", 10, true},
		{"grid:2x4", 10, false},
		{"grid:ax5", 10, false},
		{"grid:25", 10, false},
		{"grid:0x10", 10, false},
		{"grid:2x5x1", 10, false},
		{"hypercube", 8, false},
		{"heavy-hex", 5000, false},
	} {
		g, err := Topology(tc.name, tc.n)
		if !tc.ok {
			if err == nil {
				t.Errorf("topology %q/%d accepted", tc.name, tc.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("topology %q/%d: %v", tc.name, tc.n, err)
			continue
		}
		if g.NumVertices() != tc.n {
			t.Errorf("topology %q: %d vertices, want %d", tc.name, g.NumVertices(), tc.n)
		}
		if !g.Connected() {
			t.Errorf("topology %q/%d not connected", tc.name, tc.n)
		}
	}
}

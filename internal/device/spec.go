package device

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/calib"
	"repro/internal/graph"
	"repro/internal/sim"
)

// CalibSpec describes how a device's synthetic calibration is drawn.
type CalibSpec struct {
	// MedianReadout, Median1Q, Median2Q are the target median error
	// rates (see calib.Profile).
	MedianReadout float64 `json:"median_readout"`
	Median1Q      float64 `json:"median_1q"`
	Median2Q      float64 `json:"median_2q"`
	// MedianT1 and MedianT2 are coherence times in µs (defaults 250/180).
	MedianT1 float64 `json:"median_t1,omitempty"`
	MedianT2 float64 `json:"median_t2,omitempty"`
	// Spread is the log-normal relative spread (default 0.3).
	Spread float64 `json:"spread,omitempty"`
	// Seed draws this device's snapshot.
	Seed int64 `json:"seed"`
}

// Spec describes one QPU as data: the device entry of a qcloudsim
// -config file (see docs/operations.md).
type Spec struct {
	Name      string  `json:"name"`
	NumQubits int     `json:"num_qubits"`
	CLOPS     float64 `json:"clops"`
	// QuantumVolume defaults to 128.
	QuantumVolume float64 `json:"quantum_volume,omitempty"`
	// Topology selects the coupling map: "heavy-hex" (default),
	// "line", "complete", or "grid:RxC" (e.g. "grid:8x16").
	Topology    string    `json:"topology,omitempty"`
	Calibration CalibSpec `json:"calibration"`
	// StrictTopology enables connected-subgraph allocation.
	StrictTopology bool `json:"strict_topology,omitempty"`
}

// ValidateFleet checks a fleet description without building anything:
// at least one device, unique non-empty names, positive qubit counts
// and calibration medians, and a well-formed topology name. Whether a
// heavy-hex lattice can reach the qubit count and whether CLOPS and
// quantum volume are usable is left to BuildFleet.
func ValidateFleet(specs []Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("device: no devices")
	}
	names := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("device: device %d has no name", i)
		}
		if names[s.Name] {
			return fmt.Errorf("device: duplicate device %q", s.Name)
		}
		names[s.Name] = true
		if s.NumQubits <= 0 {
			return fmt.Errorf("device %q: %d qubits", s.Name, s.NumQubits)
		}
		if _, _, err := parseTopology(s.Topology, s.NumQubits); err != nil {
			return fmt.Errorf("device %q: %w", s.Name, err)
		}
		c := s.Calibration
		if c.MedianReadout <= 0 || c.Median1Q <= 0 || c.Median2Q <= 0 {
			return fmt.Errorf("device %q: calibration medians must be positive", s.Name)
		}
	}
	return nil
}

// BuildFleet validates specs (see ValidateFleet) and constructs the
// described devices on env, each drawing its calibration snapshot from
// its own seed. A spec's StrictTopology builds its device
// WithStrictTopology.
func BuildFleet(env *sim.Environment, specs []Spec) ([]*Device, error) {
	if err := ValidateFleet(specs); err != nil {
		return nil, err
	}
	fleet := make([]*Device, 0, len(specs))
	for _, s := range specs {
		topo, err := Topology(s.Topology, s.NumQubits)
		if err != nil {
			return nil, fmt.Errorf("device %q: %w", s.Name, err)
		}
		c := s.Calibration
		prof := calib.Profile{
			Name:          s.Name,
			NumQubits:     s.NumQubits,
			MedianReadout: c.MedianReadout,
			Median1Q:      c.Median1Q,
			Median2Q:      c.Median2Q,
			MedianT1:      orDefault(c.MedianT1, 250),
			MedianT2:      orDefault(c.MedianT2, 180),
			Spread:        orDefault(c.Spread, 0.3),
		}
		snap := calib.Synthesize(rand.New(rand.NewSource(c.Seed)), prof, topo.Edges(), calib.CalibrationTimestamp)
		var opts []Option
		if s.StrictTopology {
			opts = append(opts, WithStrictTopology())
		}
		d, err := New(env, topo, snap, s.CLOPS, orDefault(s.QuantumVolume, calib.StandardQuantumVolume), opts...)
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, d)
	}
	return fleet, nil
}

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Topology builds the n-qubit coupling map named by name: "heavy-hex"
// (or "") is the exact Eagle lattice at 127 qubits and a connected trim
// of a large-enough heavy-hex lattice otherwise; "line", "complete" and
// "grid:RxC" (R·C must equal n) are what they say.
func Topology(name string, n int) (*graph.Graph, error) {
	rows, cols, err := parseTopology(name, n)
	if err != nil {
		return nil, err
	}
	switch {
	case rows > 0:
		return graph.Grid(rows, cols), nil
	case name == "line":
		return graph.Line(n), nil
	case name == "complete":
		return graph.Complete(n), nil
	case n == 127:
		return graph.Eagle127(), nil
	}
	for rows := 3; rows <= 64; rows++ {
		if g := graph.HeavyHex(rows, 15, 4); g.NumVertices() >= n {
			return g.ConnectedTrim(n), nil
		}
	}
	return nil, fmt.Errorf("heavy-hex cannot reach %d qubits", n)
}

// parseTopology checks a topology name for an n-qubit device without
// building it, returning the dimensions of a "grid:RxC" name (zero for
// every other kind).
func parseTopology(name string, n int) (rows, cols int, err error) {
	switch name {
	case "", "heavy-hex", "line", "complete":
		return 0, 0, nil
	}
	dims, ok := strings.CutPrefix(name, "grid:")
	if !ok {
		return 0, 0, fmt.Errorf("unknown topology %q", name)
	}
	r, c, ok := strings.Cut(dims, "x")
	if !ok {
		return 0, 0, fmt.Errorf("grid topology %q (want grid:RxC)", name)
	}
	rows, err1 := strconv.Atoi(r)
	cols, err2 := strconv.Atoi(c)
	if err1 != nil || err2 != nil || rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("grid topology %q", name)
	}
	if n%rows != 0 || n/rows != cols { // rows·cols ≠ n, without overflow
		return 0, 0, fmt.Errorf("grid %dx%d does not have the device's %d qubits", rows, cols, n)
	}
	return rows, cols, nil
}

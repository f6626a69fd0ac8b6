package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/calib"
	"repro/internal/graph"
	"repro/internal/sim"
)

func testDevice(t *testing.T, opts ...Option) (*sim.Environment, *Device) {
	t.Helper()
	env := sim.NewEnvironment()
	topo := graph.Line(10)
	snap := calib.Synthesize(rand.New(rand.NewSource(1)), calib.Profile{
		Name: "test_dev", NumQubits: 10,
		MedianReadout: 0.01, Median1Q: 2e-4, Median2Q: 8e-3,
		MedianT1: 250, MedianT2: 180, Spread: 0.2,
	}, topo.Edges(), "t")
	d, err := New(env, topo, snap, 100000, 128, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return env, d
}

func TestNewDeviceBasics(t *testing.T) {
	_, d := testDevice(t)
	if d.Name() != "test_dev" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.NumQubits() != 10 || d.FreeQubits() != 10 {
		t.Fatalf("capacity %d free %d", d.NumQubits(), d.FreeQubits())
	}
	if d.ErrorScore() <= 0 {
		t.Fatal("error score should be positive")
	}
	if d.CLOPS() != 100000 || d.QuantumVolume() != 128 {
		t.Fatal("CLOPS/QV accessors wrong")
	}
	if d.Topology().NumVertices() != 10 {
		t.Fatal("topology accessor wrong")
	}
	if d.Calibration().DeviceName != "test_dev" {
		t.Fatal("calibration accessor wrong")
	}
}

func TestNewDeviceValidation(t *testing.T) {
	env := sim.NewEnvironment()
	topo := graph.Line(10)
	snap := calib.Synthesize(rand.New(rand.NewSource(1)), calib.Profile{
		Name: "bad", NumQubits: 10,
		MedianReadout: 0.01, Median1Q: 2e-4, Median2Q: 8e-3,
		MedianT1: 250, MedianT2: 180, Spread: 0.2,
	}, topo.Edges(), "t")

	if _, err := New(env, graph.Line(5), snap, 1000, 128); err == nil {
		t.Error("topology/calibration size mismatch accepted")
	}
	if _, err := New(env, topo, snap, 0, 128); err == nil {
		t.Error("zero CLOPS accepted")
	}
	if _, err := New(env, topo, snap, 1000, 1); err == nil {
		t.Error("QV 1 accepted")
	}
	bad := *snap
	bad.ReadoutError = append([]float64{-1}, bad.ReadoutError[1:]...)
	if _, err := New(env, topo, &bad, 1000, 128); err == nil {
		t.Error("invalid calibration accepted")
	}
}

// reserve is the test shorthand for AllocateInto into a fresh grant.
func reserve(d *Device, q int) (*Allocation, error) {
	a := &Allocation{}
	if err := d.AllocateInto(q, a); err != nil {
		return nil, err
	}
	return a, nil
}

func TestAllocateRelease(t *testing.T) {
	_, d := testDevice(t)
	a, err := reserve(d, 6)
	if err != nil {
		t.Fatalf("AllocateInto: %v", err)
	}
	if d.FreeQubits() != 4 {
		t.Fatalf("free = %d, want 4", d.FreeQubits())
	}
	if !d.CanAllocate(4) || d.CanAllocate(5) {
		t.Fatal("CanAllocate wrong after partial reservation")
	}
	if err := d.ReleaseDirect(a); err != nil {
		t.Fatalf("ReleaseDirect: %v", err)
	}
	if d.FreeQubits() != 10 {
		t.Fatalf("free = %d after release", d.FreeQubits())
	}
	// A released grant is reusable for the next reservation.
	if err := d.AllocateInto(3, a); err != nil {
		t.Fatalf("AllocateInto on a recycled grant: %v", err)
	}
	if d.FreeQubits() != 7 || a.Qubits != 3 {
		t.Fatalf("free = %d, grant = %d after reuse", d.FreeQubits(), a.Qubits)
	}
}

func TestAllocateErrors(t *testing.T) {
	_, d := testDevice(t)
	if _, err := reserve(d, 0); err == nil {
		t.Error("AllocateInto(0) accepted")
	}
	if _, err := reserve(d, 11); err == nil {
		t.Error("over-capacity allocation accepted")
	}
	a, _ := reserve(d, 10)
	if _, err := reserve(d, 1); err == nil {
		t.Error("allocation on full device accepted")
	}
	if d.FreeQubits() != 0 {
		t.Fatalf("refused reservations changed free to %d", d.FreeQubits())
	}
	if err := d.ReleaseDirect(a); err != nil {
		t.Fatal(err)
	}
	if err := d.ReleaseDirect(a); err == nil {
		t.Error("double release accepted")
	}
	if d.FreeQubits() != 10 {
		t.Fatalf("double release changed free to %d", d.FreeQubits())
	}
}

func TestReleaseWrongDevice(t *testing.T) {
	_, d1 := testDevice(t)
	_, d2 := testDevice(t)
	a, _ := reserve(d1, 2)
	if err := d2.ReleaseDirect(a); err == nil {
		t.Error("cross-device release accepted")
	}
	if d1.FreeQubits() != 8 || d2.FreeQubits() != 10 {
		t.Fatalf("cross-device release moved qubits: free %d/%d", d1.FreeQubits(), d2.FreeQubits())
	}
}

func TestStrictTopologyAllocationsConnected(t *testing.T) {
	_, d := testDevice(t, WithStrictTopology())
	a, err := reserve(d, 4)
	if err != nil {
		t.Fatalf("AllocateInto: %v", err)
	}
	if len(a.PhysicalQubits) != 4 {
		t.Fatalf("physical qubits = %v", a.PhysicalQubits)
	}
	if !d.Topology().ConnectedSubset(a.PhysicalQubits) {
		t.Fatalf("allocated qubits %v not connected", a.PhysicalQubits)
	}
}

func TestStrictTopologyFragmentation(t *testing.T) {
	// On a line of 10, allocate the middle such that remaining free
	// qubits are fragmented; a request larger than the biggest fragment
	// must be refused even though total free suffices.
	env := sim.NewEnvironment()
	topo := graph.Line(10)
	snap := calib.Synthesize(rand.New(rand.NewSource(3)), calib.Profile{
		Name: "frag", NumQubits: 10,
		MedianReadout: 0.01, Median1Q: 2e-4, Median2Q: 8e-3,
		MedianT1: 250, MedianT2: 180, Spread: 0.2,
	}, topo.Edges(), "t")
	d, err := New(env, topo, snap, 1000, 128, WithStrictTopology())
	if err != nil {
		t.Fatal(err)
	}
	// The greedy allocator seeds from the highest-degree vertex; grab 6
	// then check the remaining 4 fragment behaviour generically: free
	// set is whatever remains; the largest component bounds what is
	// allocatable.
	a, err := reserve(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	largest := d.Topology().LargestAvailableComponent(d.freeList())
	if d.CanAllocate(largest + 1) {
		t.Fatalf("CanAllocate(%d) true with largest fragment %d", largest+1, largest)
	}
	if largest > 0 && !d.CanAllocate(largest) {
		t.Fatalf("CanAllocate(%d) false with fragment of that size", largest)
	}
	if err := d.ReleaseDirect(a); err != nil {
		t.Fatal(err)
	}
	if !d.CanAllocate(10) {
		t.Fatal("full allocation should be possible after release")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	env, d := testDevice(t)
	var a Allocation
	env.AfterFunc(0, func() {
		if err := d.AllocateInto(5, &a); err != nil { // 50% of qubits
			t.Errorf("AllocateInto: %v", err)
		}
	})
	env.AfterFunc(100, func() {
		if u := d.Utilization(); math.Abs(u-0.5) > 1e-9 {
			t.Errorf("Utilization while busy = %g, want 0.5", u)
		}
		if err := d.ReleaseDirect(&a); err != nil {
			t.Errorf("ReleaseDirect: %v", err)
		}
	})
	env.AfterFunc(200, func() {})
	env.Run()
	// Busy 5 qubits for 100 of 200 seconds => utilization 0.25.
	if u := d.Utilization(); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("Utilization = %g, want 0.25", u)
	}
	if d.JobsRun() != 1 {
		t.Fatalf("JobsRun = %d", d.JobsRun())
	}
}

func TestProcessTimeUsesEq3(t *testing.T) {
	_, d := testDevice(t)
	// M=10,K=10,shots=40000,QV=128(D=7),CLOPS=100000: 10*10*40000*7/1e5 = 280.
	got := d.ProcessTime(10, 10, 40000)
	if math.Abs(got-280) > 1e-9 {
		t.Fatalf("ProcessTime = %g, want 280", got)
	}
}

func TestStandardFleet(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := StandardFleet(env, 2025)
	if err != nil {
		t.Fatalf("StandardFleet: %v", err)
	}
	if len(fleet) != 5 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	if TotalCapacity(fleet) != 635 {
		t.Fatalf("total capacity = %d, want 635", TotalCapacity(fleet))
	}
	if MaxCapacity(fleet) != 127 {
		t.Fatalf("max capacity = %d, want 127", MaxCapacity(fleet))
	}
	if TotalFree(fleet) != 635 {
		t.Fatalf("total free = %d, want 635", TotalFree(fleet))
	}
	byName := map[string]*Device{}
	for _, d := range fleet {
		byName[d.Name()] = d
	}
	if byName["ibm_strasbourg"].CLOPS() != 220000 {
		t.Error("strasbourg CLOPS wrong")
	}
	if byName["ibm_kawasaki"].CLOPS() != 29000 {
		t.Error("kawasaki CLOPS wrong")
	}
	// The fidelity-policy precondition: quebec/kyiv beat the fast pair.
	if byName["ibm_quebec"].ErrorScore() >= byName["ibm_strasbourg"].ErrorScore() {
		t.Error("quebec should have a lower error score than strasbourg")
	}
	// A device String() includes its name.
	if s := fleet[0].String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestFleetDeterministicAcrossSeeds(t *testing.T) {
	envA := sim.NewEnvironment()
	a, _ := StandardFleet(envA, 7)
	envB := sim.NewEnvironment()
	b, _ := StandardFleet(envB, 7)
	for i := range a {
		if a[i].ErrorScore() != b[i].ErrorScore() {
			t.Fatal("same seed should give identical calibration")
		}
	}
	envC := sim.NewEnvironment()
	c, _ := StandardFleet(envC, 8)
	same := true
	for i := range a {
		if a[i].ErrorScore() != c[i].ErrorScore() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different calibration")
	}
}

package policy

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

// fleet builds a ranked snapshot mirroring the case study: two fast
// mid-error devices, two slow low-error devices, one slow high-error
// device.
func fleet(free ...int) []DeviceState {
	base := []DeviceState{
		{Index: 0, Name: "ibm_strasbourg", Capacity: 127, CLOPS: 220000, ErrorScore: 0.0090},
		{Index: 1, Name: "ibm_brussels", Capacity: 127, CLOPS: 220000, ErrorScore: 0.0095},
		{Index: 2, Name: "ibm_kyiv", Capacity: 127, CLOPS: 30000, ErrorScore: 0.0070},
		{Index: 3, Name: "ibm_quebec", Capacity: 127, CLOPS: 32000, ErrorScore: 0.0068},
		{Index: 4, Name: "ibm_kawasaki", Capacity: 127, CLOPS: 29000, ErrorScore: 0.0130},
	}
	for i := range base {
		if i < len(free) {
			base[i].Free = free[i]
		} else {
			base[i].Free = base[i].Capacity
		}
	}
	RankByError(base)
	return base
}

func testJob(q int) *job.QJob {
	return &job.QJob{ID: "t", NumQubits: q, Depth: 10, Shots: 50000, TwoQubitGates: 475}
}

func TestApportionExact(t *testing.T) {
	shares := Apportion(10, []float64{1, 1}, []int{100, 100})
	if shares[0]+shares[1] != 10 {
		t.Fatalf("shares = %v", shares)
	}
	if shares[0] != 5 || shares[1] != 5 {
		t.Fatalf("equal weights should split evenly: %v", shares)
	}
}

func TestApportionProportional(t *testing.T) {
	shares := Apportion(100, []float64{3, 1}, []int{100, 100})
	if shares[0] != 75 || shares[1] != 25 {
		t.Fatalf("shares = %v, want [75 25]", shares)
	}
}

func TestApportionRespectsCaps(t *testing.T) {
	shares := Apportion(100, []float64{10, 1}, []int{40, 100})
	if shares[0] != 40 || shares[1] != 60 {
		t.Fatalf("shares = %v, want [40 60]", shares)
	}
}

func TestApportionZeroWeightSpill(t *testing.T) {
	// Zero-weight device only used when needed.
	shares := Apportion(50, []float64{1, 0}, []int{100, 100})
	if shares[0] != 50 || shares[1] != 0 {
		t.Fatalf("shares = %v, want [50 0]", shares)
	}
	shares = Apportion(150, []float64{1, 0}, []int{100, 100})
	if shares[0] != 100 || shares[1] != 50 {
		t.Fatalf("shares = %v, want [100 50]", shares)
	}
}

func TestApportionInsufficientCapacity(t *testing.T) {
	if got := Apportion(300, []float64{1, 1}, []int{100, 100}); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

func TestApportionZeroQuantity(t *testing.T) {
	shares := Apportion(0, []float64{1, 1}, []int{10, 10})
	if shares[0] != 0 || shares[1] != 0 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestApportionValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { Apportion(1, []float64{1}, []int{1, 2}) },
		func() { Apportion(-1, []float64{1}, []int{1}) },
		func() { Apportion(1, []float64{-1}, []int{1}) },
		func() { Apportion(1, []float64{1}, []int{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: apportion always sums to q, never exceeds caps, never
// negative.
func TestPropertyApportionInvariants(t *testing.T) {
	f := func(qRaw uint8, wRaw [5]uint8, cRaw [5]uint8) bool {
		weights := make([]float64, 5)
		caps := make([]int, 5)
		totalCap := 0
		for i := range weights {
			weights[i] = float64(wRaw[i] % 17)
			caps[i] = int(cRaw[i] % 130)
			totalCap += caps[i]
		}
		q := int(qRaw)
		shares := Apportion(q, weights, caps)
		if totalCap < q {
			return shares == nil
		}
		if shares == nil {
			return false
		}
		sum := 0
		for i, s := range shares {
			if s < 0 || s > caps[i] {
				return false
			}
			sum += s
		}
		return sum == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedFillsFastestFirst(t *testing.T) {
	allocs := Speed{}.Allocate(testJob(190), fleet())
	if err := Validate(testJob(190), fleet(), allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	// Minimal-k on an idle fleet: brussels and strasbourg tie on CLOPS;
	// "ibm_brussels" < "ibm_strasbourg" so brussels is filled first.
	if len(allocs) != 2 {
		t.Fatalf("k = %d, want 2", len(allocs))
	}
	if allocs[0].DeviceIndex != 1 || allocs[0].Qubits != 127 {
		t.Fatalf("first partition %+v, want brussels full", allocs[0])
	}
	if allocs[1].DeviceIndex != 0 || allocs[1].Qubits != 63 {
		t.Fatalf("second partition %+v, want strasbourg 63", allocs[1])
	}
}

func TestSpeedSpillsToSlowUnderLoad(t *testing.T) {
	// Fast pair busy: speed must still place the job on what is free.
	devs := fleet(20, 0, 127, 127, 127)
	j := testJob(190)
	allocs := Speed{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	byIdx := map[int]int{}
	for _, a := range allocs {
		byIdx[a.DeviceIndex] = a.Qubits
	}
	// strasbourg's 20 free qubits are grabbed first (fastest).
	if byIdx[0] != 20 {
		t.Fatalf("strasbourg share = %d, want 20", byIdx[0])
	}
	// Then quebec (32k) before kyiv (30k) before kawasaki (29k).
	if byIdx[3] != 127 || byIdx[2] != 43 {
		t.Fatalf("slow fill order wrong: %v", byIdx)
	}
}

func TestProportionalSpeedSpreadsByCLOPS(t *testing.T) {
	j := testJob(190)
	devs := fleet()
	allocs := ProportionalSpeed{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if len(allocs) != 5 {
		t.Fatalf("k = %d, want 5 (full spread)", len(allocs))
	}
	byIdx := map[int]int{}
	for _, a := range allocs {
		byIdx[a.DeviceIndex] = a.Qubits
	}
	fast := byIdx[0] + byIdx[1]
	if fast < 140 {
		t.Fatalf("fast pair carries %d of 190, want most", fast)
	}
}

func TestProportionalFairSpreadsEvenly(t *testing.T) {
	j := testJob(190)
	devs := fleet()
	allocs := ProportionalFair{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if len(allocs) != 5 {
		t.Fatalf("k = %d, want 5", len(allocs))
	}
	for _, a := range allocs {
		if a.Qubits < 37 || a.Qubits > 39 {
			t.Fatalf("even split expected, got %+v", allocs)
		}
	}
}

func TestProportionalPoliciesWaitWhenFull(t *testing.T) {
	devs := fleet(50, 50, 50, 20, 10)
	if got := (ProportionalSpeed{}).Allocate(testJob(190), devs); got != nil {
		t.Fatalf("expected wait, got %v", got)
	}
	if got := (ProportionalFair{}).Allocate(testJob(190), devs); got != nil {
		t.Fatalf("expected wait, got %v", got)
	}
}

func TestSpeedWaitsWhenCloudFull(t *testing.T) {
	if got := (Speed{}).Allocate(testJob(190), fleet(50, 50, 50, 20, 10)); got != nil {
		t.Fatalf("expected wait (nil), got %v", got)
	}
}

func TestFairPicksLeastUtilizedFirst(t *testing.T) {
	devs := fleet(127, 27, 127, 27, 27)
	j := testJob(150)
	allocs := Fair{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	// Idle devices (busy fraction 0): kyiv and strasbourg; name tie-break
	// puts ibm_kyiv first. 150 = kyiv 127 + strasbourg 23.
	if len(allocs) != 2 {
		t.Fatalf("k = %d, want 2", len(allocs))
	}
	if allocs[0].DeviceIndex != 2 || allocs[0].Qubits != 127 {
		t.Fatalf("first partition %+v, want kyiv full", allocs[0])
	}
	if allocs[1].DeviceIndex != 0 || allocs[1].Qubits != 23 {
		t.Fatalf("second partition %+v, want strasbourg 23", allocs[1])
	}
}

func TestFairUtilizationTieBreak(t *testing.T) {
	devs := fleet()
	// All idle: the time-averaged Utilization field breaks the tie.
	devs[4].Utilization = 0.0
	devs[0].Utilization = 0.5
	devs[1].Utilization = 0.5
	devs[2].Utilization = 0.5
	devs[3].Utilization = 0.5
	allocs := Fair{}.Allocate(testJob(150), devs)
	if allocs[0].DeviceIndex != 4 {
		t.Fatalf("least-utilized device should be first, got %+v", allocs[0])
	}
}

func TestFidelityPicksLowestErrorSet(t *testing.T) {
	devs := fleet()
	j := testJob(190)
	allocs := Fidelity{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if len(allocs) != 2 {
		t.Fatalf("k = %d, want 2 (minimal set)", len(allocs))
	}
	// quebec (0.0068) then kyiv (0.0070).
	if allocs[0].DeviceIndex != 3 || allocs[0].Qubits != 127 {
		t.Fatalf("first partition: %+v, want quebec full", allocs[0])
	}
	if allocs[1].DeviceIndex != 2 || allocs[1].Qubits != 63 {
		t.Fatalf("second partition: %+v, want kyiv 63", allocs[1])
	}
}

func TestFidelityWaitsForDesignatedSet(t *testing.T) {
	// quebec busy: even though the rest of the cloud could host the job,
	// fidelity mode must wait for its designated low-error set.
	devs := fleet(127, 127, 127, 0, 127)
	if got := (Fidelity{}).Allocate(testJob(190), devs); got != nil {
		t.Fatalf("expected wait (nil), got %v", got)
	}
}

// A rejection is the common case under backfill — the designated set is
// busy while the rest of the fleet is not — so it must not allocate.
func TestFidelityRejectionAllocFree(t *testing.T) {
	devs := fleet(127, 127, 127, 0, 127)
	j := testJob(190)
	if n := testing.AllocsPerRun(100, func() { Fidelity{}.Allocate(j, devs) }); n != 0 {
		t.Fatalf("Fidelity rejection allocates %g/op, want 0", n)
	}
}

// Devices with equal error scores rank by name, whatever their fleet
// order.
func TestFidelityBreaksScoreTiesByName(t *testing.T) {
	devs := fleet()
	devs[4].ErrorScore = devs[3].ErrorScore // kawasaki ties quebec
	RankByError(devs)
	for _, c := range []struct {
		q    int
		want []Allocation
	}{
		{100, []Allocation{{DeviceIndex: 4, Qubits: 100}}},
		{190, []Allocation{{DeviceIndex: 4, Qubits: 127}, {DeviceIndex: 3, Qubits: 63}}},
	} {
		got := Fidelity{}.Allocate(testJob(c.q), devs)
		if !slices.Equal(got, c.want) {
			t.Fatalf("%d qubits: allocation %v, want %v (ibm_kawasaki before ibm_quebec)", c.q, got, c.want)
		}
	}
}

func TestFidelityUsesThirdDeviceForHugeJobs(t *testing.T) {
	devs := fleet()
	j := testJob(260) // needs 3 devices (> 254)
	allocs := Fidelity{}.Allocate(j, devs)
	if err := Validate(j, devs, allocs); err != nil {
		t.Fatalf("invalid allocation: %v", err)
	}
	if len(allocs) != 3 {
		t.Fatalf("k = %d, want 3", len(allocs))
	}
	// Third best by error is strasbourg (0.0090).
	if allocs[2].DeviceIndex != 0 {
		t.Fatalf("third device = %d, want strasbourg(0)", allocs[2].DeviceIndex)
	}
}

func TestFidelityRejectsOversizedJob(t *testing.T) {
	if got := (Fidelity{}).Allocate(testJob(700), fleet()); got != nil {
		t.Fatalf("oversized job should be nil, got %v", got)
	}
}

func TestValidateCatchesBadAllocations(t *testing.T) {
	devs := fleet()
	j := testJob(100)
	cases := [][]Allocation{
		nil,
		{{DeviceIndex: 9, Qubits: 100}},
		{{DeviceIndex: 0, Qubits: 0}},
		{{DeviceIndex: 0, Qubits: 200}},
		{{DeviceIndex: 0, Qubits: 50}, {DeviceIndex: 0, Qubits: 50}},
		{{DeviceIndex: 0, Qubits: 99}},
	}
	for i, allocs := range cases {
		if err := Validate(j, devs, allocs); err == nil {
			t.Errorf("case %d: bad allocation accepted", i)
		}
	}
	good := []Allocation{{DeviceIndex: 0, Qubits: 60}, {DeviceIndex: 1, Qubits: 40}}
	if err := Validate(j, devs, good); err != nil {
		t.Errorf("good allocation rejected: %v", err)
	}
}

func TestPolicyNames(t *testing.T) {
	if (Speed{}).Name() != "speed" || (Fair{}).Name() != "fair" || (Fidelity{}).Name() != "fidelity" {
		t.Fatal("policy names wrong")
	}
}

// Property: for any feasible free configuration, every policy returns
// either nil or a valid allocation.
func TestPropertyPoliciesReturnValidAllocations(t *testing.T) {
	policies := []Policy{Speed{}, Fair{}, Fidelity{}, ProportionalSpeed{}, ProportionalFair{}}
	f := func(fRaw [5]uint8, qRaw uint8) bool {
		free := make([]int, 5)
		for i := range free {
			free[i] = int(fRaw[i]) % 128
		}
		devs := fleet(free...)
		q := 130 + int(qRaw)%121
		j := testJob(q)
		for _, p := range policies {
			allocs := p.Allocate(j, devs)
			if allocs == nil {
				continue
			}
			if err := Validate(j, devs, allocs); err != nil {
				t.Logf("%s: %v", p.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

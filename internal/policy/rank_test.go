package policy

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/job"
)

// referenceFidelityAllocate is Fidelity.Allocate as it was before
// snapshots carried ErrorRank: it sorts the fleet by ErrorScore, ties
// by Name, on every call. The rank-based Allocate must agree with it.
func referenceFidelityAllocate(j *job.QJob, devices []DeviceState) []Allocation {
	// Rank by error score (ties by name for determinism). Rejections
	// allocate nothing: the ranking lives on the stack.
	var buf [maxStackDevices]int
	order := indices(buf[:], len(devices))
	slices.SortFunc(order, func(a, b int) int {
		da, db := &devices[a], &devices[b]
		if c := cmp.Compare(da.ErrorScore, db.ErrorScore); c != 0 {
			return c
		}
		return strings.Compare(da.Name, db.Name)
	})
	// Minimal prefix by total capacity: the designated low-error set.
	need := j.NumQubits
	capSum := 0
	prefix := 0
	for prefix < len(order) && capSum < need {
		capSum += devices[order[prefix]].Capacity
		prefix++
	}
	if capSum < need {
		return nil // job larger than the whole cloud
	}
	// Wait until the designated set has room (do not spill to worse
	// devices — that is the point of this mode).
	freeSum := 0
	for _, i := range order[:prefix] {
		freeSum += devices[i].Free
	}
	if freeSum < need {
		return nil
	}
	return fill(devices, order[:prefix], need)
}

// referenceOracleFillSubset is Oracle.fillSubset as it was before
// snapshots carried ErrorRank: it insertion-sorts the subset's members
// by ErrorScore, ties by Name.
func referenceOracleFillSubset(j *job.QJob, devices []DeviceState, mask int) ([]Allocation, bool) {
	var members []int
	free := 0
	for i := range devices {
		if mask&(1<<i) != 0 {
			members = append(members, i)
			free += devices[i].Free
		}
	}
	if free < j.NumQubits {
		return nil, false
	}
	for a := 1; a < len(members); a++ {
		for b := a; b > 0; b-- {
			da, db := devices[members[b-1]], devices[members[b]]
			if da.ErrorScore > db.ErrorScore ||
				(da.ErrorScore == db.ErrorScore && da.Name > db.Name) {
				members[b-1], members[b] = members[b], members[b-1]
			}
		}
	}
	need := j.NumQubits
	var allocs []Allocation
	for _, i := range members {
		if need == 0 {
			return nil, false
		}
		take := devices[i].Free
		if take > need {
			take = need
		}
		if take == 0 {
			return nil, false
		}
		allocs = append(allocs, Allocation{DeviceIndex: i, Qubits: take})
		need -= take
	}
	return allocs, need == 0
}

// randomRanked draws a ranked snapshot of n devices with unique names in
// shuffled order, error scores from a four-value set (so ties are
// common), and arbitrary occupancy.
func randomRanked(rng *rand.Rand, n int) []DeviceState {
	names := rng.Perm(n)
	out := make([]DeviceState, n)
	for i := range out {
		capacity := 27 + rng.Intn(101)
		out[i] = DeviceState{
			Index:      i,
			Name:       fmt.Sprintf("qpu_%02d", names[i]),
			Capacity:   capacity,
			Free:       rng.Intn(capacity + 1),
			ErrorScore: 0.005 + 0.001*float64(rng.Intn(4)),
			CLOPS:      float64(20000 + rng.Intn(200000)),
		}
		if rng.Intn(3) == 0 {
			out[i].Free = capacity
		}
	}
	RankByError(out)
	return out
}

// The rank-based Fidelity places exactly as the sort-per-call reference,
// on fleets past the stack buffer and with tied scores.
func TestFidelityMatchesSortPerCallReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	placed, waited := 0, 0
	for trial := 0; trial < 4000; trial++ {
		devs := randomRanked(rng, 1+rng.Intn(20))
		capacity := 0
		for _, d := range devs {
			capacity += d.Capacity
		}
		j := testJob(1 + rng.Intn(capacity+50))
		got := Fidelity{}.Allocate(j, devs)
		want := referenceFidelityAllocate(j, devs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %d qubits on %+v:\nranked    %v\nreference %v", trial, j.NumQubits, devs, got, want)
		}
		if got != nil {
			placed++
		} else {
			waited++
		}
	}
	if placed == 0 || waited == 0 {
		t.Fatalf("%d placed, %d waited: the comparison saw only one outcome", placed, waited)
	}
}

// Oracle fills every subset in the order of the insertion sort it used
// to run per subset.
func TestOracleFillMatchesSortPerSubsetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		devs := randomRanked(rng, 1+rng.Intn(8))
		var buf [OracleMaxDevices]int
		order := byErrorRank(devs, buf[:])
		j := testJob(1 + rng.Intn(300))
		for mask := 1; mask < 1<<len(devs); mask++ {
			got, gotOK := Oracle{}.fillSubset(j, devs, order, mask)
			want, wantOK := referenceOracleFillSubset(j, devs, mask)
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("trial %d, mask %b: ranked %v %v, reference %v %v", trial, mask, got, gotOK, want, wantOK)
			}
		}
	}
}

// RankByError's order is the reference comparator's: lowest score
// first, ties by name.
func TestRankByErrorOrder(t *testing.T) {
	devs := fleet()
	devs[4].ErrorScore = devs[3].ErrorScore // kawasaki ties quebec
	RankByError(devs)
	got := make([]string, len(devs))
	for _, d := range devs {
		got[d.ErrorRank] = d.Name
	}
	want := []string{"ibm_kawasaki", "ibm_quebec", "ibm_kyiv", "ibm_strasbourg", "ibm_brussels"}
	if !slices.Equal(got, want) {
		t.Fatalf("rank order %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { RankByError(devs) }); n != 0 {
		t.Fatalf("RankByError allocates %g/op on five devices, want 0", n)
	}
}

// A snapshot whose ranks are not a permutation of 0..n-1 was built
// without RankByError; Fidelity and Oracle refuse it by name rather
// than place by a wrong order.
func TestUnrankedSnapshotPanics(t *testing.T) {
	unranked := func(n int) []DeviceState {
		devs := fleet()[:n]
		for i := range devs {
			devs[i].ErrorRank = 0
		}
		return devs
	}
	outOfRange := fleet()
	outOfRange[2].ErrorRank = 5
	for _, c := range []struct {
		name string
		pol  Policy
		devs []DeviceState
	}{
		{"fidelity unranked pair", Fidelity{}, unranked(2)},
		{"fidelity unranked fleet", Fidelity{}, unranked(5)},
		{"fidelity rank out of range", Fidelity{}, outOfRange},
		{"oracle unranked fleet", Oracle{}, unranked(5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "RankByError") {
					t.Fatalf("panic %v, want one naming RankByError", r)
				}
			}()
			c.pol.Allocate(testJob(100), c.devs)
		})
	}
	// One device has one valid rank, the zero value.
	if got := (Fidelity{}).Allocate(testJob(100), unranked(1)); len(got) != 1 {
		t.Fatalf("one-device snapshot: %v", got)
	}
}

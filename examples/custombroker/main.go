// Custom broker: the framework's §3 extension point — users implement
// policy.Policy to plug their own allocation strategy into the broker.
// This example builds a "balanced" broker that scores devices by a
// weighted mix of error score and current load, then compares it against
// the built-in strategies on the same workload.
//
//	go run ./examples/custombroker
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// BalancedBroker is a user-defined allocation policy: it greedily fills
// devices ranked by a blended score of calibration quality and current
// occupancy, interpolating between the fidelity and fair modes.
type BalancedBroker struct {
	// ErrorWeight in [0,1] sets how much calibration quality dominates
	// load balancing. 1 behaves like the fidelity mode's ranking; 0
	// like the fair mode's.
	ErrorWeight float64
}

// Name implements policy.Policy.
func (b BalancedBroker) Name() string { return "balanced-custom" }

// Allocate implements policy.Policy: greedy minimal-k fill over free
// devices ordered by the blended score.
func (b BalancedBroker) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	total := 0
	for _, d := range devices {
		total += d.Free
	}
	if total < j.NumQubits {
		return nil // wait for releases
	}
	order := make([]int, len(devices))
	for i := range order {
		order[i] = i
	}
	score := func(d policy.DeviceState) float64 {
		busy := float64(d.Capacity-d.Free) / float64(d.Capacity)
		// Error scores are ~1e-2; rescale so both terms are O(1).
		return b.ErrorWeight*d.ErrorScore*50 + (1-b.ErrorWeight)*busy
	}
	sort.SliceStable(order, func(x, y int) bool {
		sx, sy := score(devices[order[x]]), score(devices[order[y]])
		if sx != sy {
			return sx < sy
		}
		return devices[order[x]].Name < devices[order[y]].Name
	})
	need := j.NumQubits
	var allocs []policy.Allocation
	for _, i := range order {
		if need == 0 {
			break
		}
		take := devices[i].Free
		if take > need {
			take = need
		}
		if take > 0 {
			allocs = append(allocs, policy.Allocation{DeviceIndex: i, Qubits: take})
			need -= take
		}
	}
	return allocs
}

func main() {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 100
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		log.Fatal(err)
	}

	candidates := []policy.Policy{
		policy.Speed{},
		policy.Fidelity{},
		policy.Fair{},
		BalancedBroker{ErrorWeight: 0.5},
	}
	fmt.Printf("%-16s %12s %20s %12s %6s\n", "policy", "T_sim (s)", "fidelity", "T_comm (s)", "k")
	for _, pol := range candidates {
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			log.Fatal(err)
		}
		_, res, err := core.RunBatch(env, fleet, pol, core.DefaultConfig(), jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %12.1f %10.5f +- %.5f %12.1f %6.2f\n",
			pol.Name(), res.TotalSimTime, res.FidelityMean, res.FidelityStd,
			res.TotalCommTime, res.MeanDevicesPerJob)
	}
	fmt.Println("\nThe custom broker interpolates the fidelity/fair trade-off:")
	fmt.Println("tune ErrorWeight to move along the paper's speed-fidelity frontier.")
}

// Quickstart: simulate a small batch of distributed quantum jobs on the
// paper's five-device IBM cloud with the error-aware (fidelity) policy,
// and print the Table 2 metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

func main() {
	// 1. A discrete-event simulation environment.
	env := sim.NewEnvironment()

	// 2. The case-study cloud: ibm_strasbourg, ibm_brussels, ibm_kyiv,
	// ibm_quebec, ibm_kawasaki — 127 qubits each, synthetic calibration.
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range fleet {
		fmt.Println("device:", d)
	}

	// 3. A workload of circuits too large for any single device
	// (130–250 qubits each, the paper's Eq. 1 regime).
	cfg := job.DefaultSyntheticConfig()
	cfg.N = 25
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The simulation: error-aware scheduling with default model
	// constants (phi=0.95, lambda=0.02 s/qubit).
	simEnv, results, err := core.RunBatch(env, fleet, policy.Fidelity{}, core.DefaultConfig(), jobs)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Metrics: total simulated time, fidelity, communication cost.
	fmt.Println()
	fmt.Println(results)
	fmt.Printf("\nfirst three jobs:\n")
	for _, s := range simEnv.Records.Finished()[:3] {
		fmt.Printf("  %s waited %.0fs, ran on %d devices, fidelity %.4f\n",
			s.JobID, s.WaitTime(), s.Devices, s.Fidelity)
	}
}

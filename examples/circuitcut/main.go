// Circuit decomposition: generate a concrete 200-qubit layered circuit,
// partition it across three devices with three strategies (random,
// contiguous, greedy min-cut), compare the cut two-qubit gates each
// strategy turns into inter-device communication, then run the derived
// job through the scheduler.
//
// This demonstrates the layer beneath the paper's gate-count
// abstraction: "the tool models circuit decomposition for workloads that
// surpass individual QPU limits" (abstract).
//
//	go run ./examples/circuitcut
package main

import (
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

func main() {
	// A locality-biased random circuit, as a transpiler would produce.
	circ, err := circuit.Random(circuit.RandomConfig{
		NumQubits:       200,
		Depth:           16,
		TwoQubitDensity: 0.5,
		Locality:        6,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %d qubits, depth %d, %d single-qubit gates, %d two-qubit gates\n",
		circ.NumQubits, circ.Depth, circ.SingleQubitGateCount(), circ.TwoQubitGateCount())

	// Partition across three blocks matching a 127+63+10 allocation.
	sizes := []int{127, 63, 10}
	random, err := circuit.RandomPartition(circ, sizes, 1)
	if err != nil {
		log.Fatal(err)
	}
	contig, err := circuit.ContiguousPartition(circ, sizes)
	if err != nil {
		log.Fatal(err)
	}
	minCut, err := circuit.MinCutPartition(circ, sizes, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncut two-qubit gates (each becomes classical communication):")
	fmt.Printf("  random partition:     %4d (%.1f%% of t2)\n",
		random.CutGates(circ), 100*random.CutFraction(circ))
	fmt.Printf("  contiguous partition: %4d (%.1f%% of t2)\n",
		contig.CutGates(circ), 100*contig.CutFraction(circ))
	fmt.Printf("  greedy min-cut:       %4d (%.1f%% of t2)\n",
		minCut.CutGates(circ), 100*minCut.CutFraction(circ))

	for b, s := range minCut.Subcircuits(circ) {
		fmt.Printf("  min-cut block %d: %3d qubits, %4d 1q gates, %4d internal 2q gates\n",
			b, s.Qubits, s.SingleQubitGates, s.TwoQubitGates)
	}

	// Derive the scheduler-level job and run it through the cloud.
	j, err := circuit.ToQJob("cut-demo", circ, 50000, 0)
	if err != nil {
		log.Fatal(err)
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		log.Fatal(err)
	}
	simEnv, res, err := core.RunBatch(env, fleet, policy.Fidelity{}, core.DefaultConfig(), []*job.QJob{j})
	if err != nil {
		log.Fatal(err)
	}
	s := simEnv.Records.Get(j.ID)
	fmt.Printf("\nscheduled onto %v: fidelity %.4f, comm %.1f s\n",
		s.DeviceNames, s.Fidelity, s.CommTime)
	fmt.Println(res)
}

// Config-driven simulation: the paper's Configurations Layer (§3) lets
// users define the entire experiment — devices, topologies, calibration,
// workload, policy, model constants — as JSON, without touching code.
// This example loads a heterogeneous three-device cloud (different
// sizes, speeds, and topologies) from the embedded spec.json through
// the run-description loader (runspec.Load), assembles it with the one
// run builder (Run.Build) and runs it; `qcloudsim -config
// examples/configdriven/spec.json` runs the same file through the same
// two calls.
//
//	go run ./examples/configdriven
package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/runspec"
	"repro/internal/sim"
)

//go:embed spec.json
var specJSON []byte

func main() {
	run, err := runspec.Load(bytes.NewReader(specJSON), false)
	if err != nil {
		log.Fatal(err)
	}
	env := sim.NewEnvironment()
	fleet, pol, jobs, err := run.Build(env, policy.Params{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cloud from spec:")
	for _, d := range fleet {
		fmt.Printf("  %-14s %3d qubits  CLOPS %6.0f  error score %.5f  topology edges %d\n",
			d.Name(), d.NumQubits(), d.CLOPS(), d.ErrorScore(), d.Topology().NumEdges())
	}

	simEnv, res, err := core.RunBatch(env, fleet, pol, run.Model, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v\n", res)
	fmt.Println("device load (error-aware policy prefers the clean lattice):")
	for _, share := range simEnv.Records.DeviceLoadShare() {
		fmt.Printf("  %-14s %3d sub-jobs (%.0f%%)\n", share.Name, share.SubJobs, 100*share.Share)
	}
}

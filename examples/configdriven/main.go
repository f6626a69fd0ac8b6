// Config-driven simulation: the paper's Configurations Layer (§3) lets
// users define the entire experiment — devices, topologies, calibration,
// workload, policy, model constants — as JSON, without touching code.
// This example builds a heterogeneous three-device cloud (different
// sizes, speeds, and topologies) from the embedded spec.json and runs
// it; `qcloudsim -config examples/configdriven/spec.json` runs the same
// file.
//
//	go run ./examples/configdriven
package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

//go:embed spec.json
var specJSON []byte

// spec is the example's slice of the qcloudsim -config schema: each
// block decodes straight into the simulator's own types.
type spec struct {
	Devices  []device.Spec `json:"devices"`
	Workload struct {
		Source    string              `json:"source"`
		Synthetic job.SyntheticConfig `json:"synthetic"`
	} `json:"workload"`
	Policy string      `json:"policy"`
	Model  core.Config `json:"model"`
}

func main() {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		log.Fatal(err)
	}
	env := sim.NewEnvironment()
	fleet, err := device.BuildFleet(env, s.Devices)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := policy.New(s.Policy, policy.Params{Phi: s.Model.Phi})
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := job.Synthetic(s.Workload.Synthetic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cloud from spec:")
	for _, d := range fleet {
		fmt.Printf("  %-14s %3d qubits  CLOPS %6.0f  error score %.5f  topology edges %d\n",
			d.Name(), d.NumQubits(), d.CLOPS(), d.ErrorScore(), d.Topology().NumEdges())
	}

	simEnv, res, err := core.RunBatch(env, fleet, pol, s.Model, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v\n", res)
	fmt.Println("device load (error-aware policy prefers the clean lattice):")
	for _, share := range simEnv.Records.DeviceLoadShare() {
		fmt.Printf("  %-14s %3d sub-jobs (%.0f%%)\n", share.Name, share.SubJobs, 100*share.Share)
	}
}

// CSV workload: run a deterministic workload loaded from CSV — the
// paper's reproducible benchmarking mode (§3, JobGenerator) — and
// compare two policies on exactly the same jobs.
//
//	go run ./examples/csvworkload
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// workloadCSV is a deterministic five-job trace: job_id, num_qubits,
// depth, num_shots, arrival_time, two_qubit_gates.
const workloadCSV = `job_id,num_qubits,depth,num_shots,arrival_time,two_qubit_gates
vqe-h2o,180,12,50000,0,540
qaoa-maxcut,240,18,80000,120,1080
qft-sim,150,8,25000,400,300
chem-lih,200,15,60000,650,750
qv-stress,250,20,100000,900,1250
`

func main() {
	jobs, err := job.LoadCSV(strings.NewReader(workloadCSV))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d deterministic jobs\n", len(jobs))
	for _, j := range jobs {
		fmt.Println(" ", j)
	}

	for _, pol := range []policy.Policy{policy.Speed{}, policy.Fidelity{}} {
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, 2025)
		if err != nil {
			log.Fatal(err)
		}
		simEnv, res, err := core.RunBatch(env, fleet, pol, core.DefaultConfig(), jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s ==\n", pol.Name())
		for _, s := range simEnv.Records.Finished() {
			fmt.Printf("  %-12s wait %7.1fs  exec %8.1fs  fidelity %.4f  devices %s\n",
				s.JobID, s.WaitTime(), s.ExecTime(), s.Fidelity,
				strings.Join(s.DeviceNames, "+"))
		}
		fmt.Printf("  total: Tsim=%.1fs muF=%.4f Tcomm=%.1fs\n",
			res.TotalSimTime, res.FidelityMean, res.TotalCommTime)
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
)

// TestFlagBatchMatchesCaseStudy: qcloudsim's flag batch and the
// experiments harness's paper case study describe the same run, so at
// one job count, workload seed and fleet seed every heuristic policy
// gives the same results through both entries.
func TestFlagBatchMatchesCaseStudy(t *testing.T) {
	const n, seed, fleetSeed = 200, 1, 2025
	spec := experiments.Spec{Jobs: n, Seed: new(int64), FleetSeed: new(int64)}
	*spec.Seed, *spec.FleetSeed = seed, fleetSeed
	for _, name := range policy.Names() {
		if policy.NeedsModel(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var stdout bytes.Buffer
			args := []string{"-policy", name, "-n", strconv.Itoa(n), "-seed", strconv.Itoa(seed),
				"-fleet-seed", strconv.Itoa(fleetSeed)}
			if err := run(args, nil, &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			cs, err := spec.CaseStudy()
			if err != nil {
				t.Fatal(err)
			}
			mr, err := cs.RunMode(name)
			if err != nil {
				t.Fatal(err)
			}
			want := summary(mr.Results)
			if got := stdout.String(); !strings.HasPrefix(got, want) {
				t.Fatalf("flag batch diverges from the case study:\nflags:\n%s\ncase study:\n%s", got, want)
			}
			if name == "fair" && !strings.Contains(want, "T_sim       83087.59 s\nfidelity    0.68859") {
				t.Fatalf("fair at %d jobs moved:\n%s", n, want)
			}
		})
	}
}

// summary renders the results lines that head a batch run's report.
func summary(r core.Results) string {
	return fmt.Sprintf("policy      %s\njobs        %d\nT_sim       %.2f s\nfidelity    %.5f +- %.5f\nT_comm      %.2f s\nmean wait   %.2f s\nmean k      %.2f devices/job\n",
		r.Policy, r.JobsFinished, r.TotalSimTime, r.FidelityMean, r.FidelityStd, r.TotalCommTime, r.MeanWaitTime, r.MeanDevicesPerJob)
}

package main

import (
	"fmt"
	"os"
	"time"
)

// batchSpec is one batch workload: qcloudsim -jobs <csv> -export, once
// per policy per round.
type batchSpec struct {
	stream   int64
	jobs     int
	policies []string
	backfill bool
}

var (
	table2Spec   = batchSpec{stream: streamTable2, jobs: table2Jobs, policies: table2Policies}
	backfillSpec = batchSpec{stream: streamBackfill, jobs: backfillJobs, policies: backfillPolicies, backfill: true}
)

// batchRun is what the binary phase of a batch workload leaves for the
// traced phase.
type batchRun struct {
	csv          string
	digests      map[string]string
	stdoutPerJob float64
}

func (s batchSpec) args(pol, csv, export, model string) []string {
	args := []string{"-policy", pol, "-jobs", csv}
	if s.backfill {
		args = append(args, "-backfill")
	}
	if pol == "rlbase" {
		args = append(args, "-rlmodel", model)
	}
	if export != "" {
		args = append(args, "-export", export)
	}
	return args
}

// batchRounds runs every policy of the workload, round after round, until
// the simulator runs add up to at least seconds (one round at least).
// Each run is one op. The first round's exports are checked for the
// per-job invariants and, on the default seed, against the pinned
// digests; later rounds must reproduce the first round byte for byte.
func (b *bench) batchRounds(s batchSpec, model string, seconds time.Duration) (*batchRun, error) {
	csv := b.path("jobs.csv")
	if err := os.WriteFile(csv, csvBytes(genJobs(b.seed, s.stream, s.jobs, batchGapS, 0)), 0o644); err != nil {
		return nil, err
	}
	run := &batchRun{csv: csv, digests: map[string]string{}}
	var cpus, rss []float64
	perPolicy := map[string][]float64{}
	var busy time.Duration
	var stdout int64
	jobs := 0
	for round := 0; round == 0 || busy < seconds; round++ {
		for _, pol := range s.policies {
			export := b.path("export-" + pol + ".csv")
			r, err := b.runBin("qcloudsim", s.args(pol, csv, export, model)...)
			if err != nil {
				return nil, err
			}
			busy += r.wall
			cpu := r.cpu.Seconds()
			cpus = append(cpus, cpu*1e3)
			perPolicy[pol] = append(perPolicy[pol], cpu)
			rss = append(rss, r.rssMB)
			stdout += r.stdoutBytes
			jobs += s.jobs
			b.op(b.checkBatchExport(s, pol, export, run.digests))
		}
	}
	// Simulator runs are timed in CPU time, and a typical round is each
	// policy's median run, so neither a neighbour's load on the shared
	// host nor one disturbed run moves the figures.
	round := 0.0
	for _, cs := range perPolicy {
		round += median(cs)
	}
	b.set("jobs_per_s", float64(s.jobs*len(s.policies))/round)
	b.set("op_p50_ms", median(cpus))
	b.set("peak_rss_mb", maxOf(rss))
	run.stdoutPerJob = float64(stdout) / float64(jobs)
	return run, nil
}

func (b *bench) checkBatchExport(s batchSpec, pol, export string, digests map[string]string) error {
	data, err := os.ReadFile(export)
	if err != nil {
		return err
	}
	d := digest(data)
	if first, ok := digests[pol]; ok {
		if d != first {
			return fmt.Errorf("%s: a repeated run changed the export", pol)
		}
		return nil
	}
	digests[pol] = d
	if err := checkExport(data, s.jobs); err != nil {
		return fmt.Errorf("%s: %w", pol, err)
	}
	return checkPinned(b.seed, b.workload, pol, d)
}

func runTable2(b *bench) error {
	model, setups, err := b.train(trainRuns)
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups))
	_, err = b.batchRounds(table2Spec, model, b.seconds)
	return err
}

// backfillSetup times qcloudsim on a one-job prefix of the workload, in
// CPU time: process start, fleet construction and one dispatch.
func (b *bench) backfillSetup() error {
	path := b.path("first.csv")
	if err := os.WriteFile(path, csvBytes(genJobs(b.seed, backfillSpec.stream, 1, batchGapS, 0)), 0o644); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		r, err := b.runBin("qcloudsim", backfillSpec.args("speed", path, "", "")...)
		if err != nil {
			return err
		}
		setups = append(setups, r.cpu.Seconds())
	}
	b.set("setup_s", median(setups))
	return nil
}

func runBackfill(b *bench) error {
	if err := b.backfillSetup(); err != nil {
		return err
	}
	_, err := b.batchRounds(backfillSpec, "", b.seconds)
	return err
}

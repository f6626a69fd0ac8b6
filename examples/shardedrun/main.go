// Command shardedrun walks through the declarative experiments API on
// its multi-process backend: one experiments.Spec — scenario, task
// matrices, overrides — executed by experiments.Run on the Sharded
// executor, which fans the expanded task list out across worker OS
// processes.
//
// The protocol in one paragraph: Run expands the spec's task matrix
// (here: one replicated Table 2 run per workload seed), the shard
// coordinator partitions the task indices into contiguous shards and
// re-invokes THIS binary as `-serve 127.0.0.1:0` once per shard: a
// loopback worker daemon that announces its address on stdout and is
// dialed like any `experiments -hosts` fleet daemon. It re-enumerates
// the identical task list, verifies the labels match, and streams one
// manifest row per finished simulation. A worker that dies mid-shard
// only forfeits its unfinished tasks: the coordinator spawns a fresh
// daemon on the remainder (bounded retries), and the final
// records.MergeManifests pass fails loudly if any task ever went
// missing or ran twice. Daemons die with their shard — or with the
// coordinator, whose exit closes their stdin pipe. For fixed seeds the
// merged manifest is bit-identical to the same spec run on the
// Sequential or Parallel executor.
//
// Run it:
//
//	go run ./examples/shardedrun            # 2 worker processes
//	go run ./examples/shardedrun -shards 4  # more fan-out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/experiments/shard"
	"repro/internal/stats"
)

func main() {
	shards := flag.Int("shards", 2, "worker process count")
	serve := flag.String("serve", "", "internal: run as a worker daemon on this address (spawned by the coordinator)")
	flag.Parse()

	// Worker half: this one branch is all a binary needs to be
	// shardable — the default ShardOptions Command re-invokes the
	// current executable with exactly this flag.
	if *serve != "" {
		if err := experiments.ShardServer(1, nil).ListenAndServe(context.Background(), *serve); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		return
	}

	// Coordinator half: declare the experiment as a Spec — the paper
	// scenario scaled down to 60 jobs, replicated across five workload
	// seeds under the speed strategy — five independent simulations to
	// partition. The same Spec runs unchanged on the Sequential or
	// Parallel executor, or from a JSON file via
	// `go run ./cmd/experiments -spec`.
	spec := experiments.Spec{
		Name:     "shardedrun",
		Scenario: "paper",
		Jobs:     60,
		Matrices: []experiments.TaskMatrix{
			{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2, 3, 4, 5}},
		},
	}

	exec := experiments.Sharded{Options: experiments.ShardOptions{
		Shards: *shards,
		OnEvent: func(p shard.Progress) {
			switch p.Event {
			case "result":
				fmt.Fprintf(os.Stderr, "[%d/%d] %s finished on shard %d\n", p.Done, p.Total, p.Label, p.Shard)
			case "retry":
				fmt.Fprintf(os.Stderr, "shard %d crashed (%v); respawning on its remainder\n", p.Shard, p.Err)
			}
		},
	}}
	m, err := experiments.Run(context.Background(), spec, exec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardedrun:", err)
		os.Exit(1)
	}

	fmt.Printf("merged manifest %q: %d rows from %d worker processes\n\n", m.Label, len(m.Runs), *shards)
	fmt.Printf("%-24s %12s %10s %12s\n", "task", "T_sim (s)", "muF", "T_comm (s)")
	var muF []float64
	for _, r := range m.Runs {
		fmt.Printf("%-24s %12.0f %10.5f %12.0f\n", r.ID, r.TsimS, r.FidelityMean, r.TcommS)
		muF = append(muF, r.FidelityMean)
	}
	agg := stats.AggregateSamples(muF)
	fmt.Printf("\nmuF across seeds: %.5f +- %.5f (95%% CI +- %.5f)\n", agg.Mean, agg.Std, agg.CI95)
}

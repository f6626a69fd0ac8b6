// Command distributed walks through hosts-level distributed execution
// end to end: it brings up two worker daemons, probes them the way
// `experiments -doctor` does, fans one experiments.Spec across the
// fleet on the Remote executor, and then proves the distributed
// manifest matches an in-process Parallel run row for row.
//
// The daemons here are goroutines serving real TCP listeners on
// 127.0.0.1 — experiments.ShardServer is exactly the daemon behind
// `go run ./cmd/experiments -serve <addr>`, so everything below
// transfers verbatim to a real fleet: start one daemon per machine,
// point -hosts (or the spec's "hosts" block) at them, and the
// coordinator does the rest. A daemon that dies mid-order has its
// unfinished tasks requeued onto a surviving host (bounded retries),
// and every manifest row records which host produced it on which
// attempt. See docs/operations.md for the fleet runbook and wire
// protocol.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/shard"
	"repro/internal/records"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 1. The fleet: two worker daemons on ephemeral localhost ports. On
	// real machines this is `experiments -serve 0.0.0.0:7070` per host;
	// ShardServer is that flag's engine.
	hosts := make([]string, 2)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hosts[i] = ln.Addr().String()
		go func() {
			if err := experiments.ShardServer(2, nil).Serve(ctx, ln); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// 2. Doctor pass: one probe per host — the same handshake and
	// health snapshot `experiments -doctor -hosts a:7070,b:7070` prints.
	fmt.Println("fleet health:")
	for _, h := range hosts {
		info, err := shard.Probe(ctx, h, 2*time.Second)
		if err != nil {
			log.Fatalf("daemon %s unhealthy: %v", h, err)
		}
		fmt.Printf("  %-21s up  protocol v%d  capacity %d  rtt %s\n",
			info.Host, info.Version, info.Capacity, info.RTT.Round(time.Microsecond))
	}

	// 3. The experiment: the paper scenario scaled to 60 jobs,
	// replicated across six workload seeds under the speed strategy.
	// The identical Spec runs on any executor; adding a "hosts" list to
	// its JSON form makes `cmd/experiments -spec` pick Remote by itself.
	spec := experiments.Spec{
		Name:     "distributed",
		Scenario: "paper",
		Jobs:     60,
		Matrices: []experiments.TaskMatrix{
			{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2, 3, 4, 5, 6}},
		},
	}

	remote := experiments.Remote{Options: experiments.RemoteOptions{
		Hosts: hosts,
		OnEvent: func(p shard.Progress) {
			switch p.Event {
			case "result":
				fmt.Fprintf(os.Stderr, "[%d/%d] %s finished\n", p.Done, p.Total, p.Label)
			case "retry":
				fmt.Fprintf(os.Stderr, "shard %d lost its daemon (%v); requeueing on a survivor\n", p.Shard, p.Err)
			}
		},
	}}
	m, err := experiments.Run(ctx, spec, remote)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Provenance: remote rows carry the host that computed them and
	// the attempt number (non-zero only after a crash requeue).
	fmt.Printf("\nremote manifest %q: %d rows\n", m.Label, len(m.Runs))
	fmt.Printf("%-24s %12s %10s   %s\n", "task", "T_sim (s)", "muF", "host (attempt)")
	for _, r := range m.Runs {
		fmt.Printf("%-24s %12.0f %10.5f   %s (%d)\n", r.ID, r.TsimS, r.FidelityMean, r.Host, r.Attempt)
	}

	// 5. The distributed run must change nothing but where tasks ran:
	// the same spec in-process, then a metric-level diff. Host, attempt,
	// wall time and worker accounting are excluded by design — every
	// simulated number must agree exactly.
	local, err := experiments.Run(ctx, spec, experiments.Parallel{})
	if err != nil {
		log.Fatal(err)
	}
	diff := records.DiffManifests(m, local)
	if !diff.Empty() {
		fmt.Println("\nremote and parallel manifests diverge:")
		if err := diff.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		os.Exit(1)
	}
	fmt.Printf("\nremote == parallel: all %d rows identical across %d hosts\n", len(m.Runs), len(hosts))
}

package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/experiments/runner"
	"repro/internal/records"
)

// TestParallelRunAllMatchesSequential is the engine's core guarantee:
// fanning the four strategies out across workers yields a manifest
// bit-identical to the sequential one (wall times and worker
// accounting aside).
func TestParallelRunAllMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq, err := Execute(ctx, smallCase(), TaskMatrix{Kind: "modes"}, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(ctx, smallCase(), TaskMatrix{Kind: "modes"}, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Runs) != len(Modes) {
		t.Fatalf("%d rows, want %d", len(par.Runs), len(Modes))
	}
	for i, mode := range Modes {
		if par.Runs[i].Mode != mode {
			t.Fatalf("row %d runs %q, want %q", i, par.Runs[i].Mode, mode)
		}
	}
	if want, got := normalizedJSON(t, seq), normalizedJSON(t, par); !bytes.Equal(want, got) {
		t.Fatalf("parallel manifest diverges from sequential:\n%s\n%s", got, want)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	ctx := context.Background()
	m := TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.9, 0.95, 1.0}}
	seq, err := Execute(ctx, smallCase(), m, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(ctx, smallCase(), m, ExecOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := normalizedJSON(t, seq), normalizedJSON(t, par); !bytes.Equal(want, got) {
		t.Fatalf("sweep diverges:\nseq %s\npar %s", want, got)
	}
	if len(par.Runs) != len(m.Values) {
		t.Fatalf("%d rows, want %d", len(par.Runs), len(m.Values))
	}
	for i, r := range par.Runs {
		if r.Kind != "phi-sweep" || r.Phi != r.Param || r.Param != m.Values[i] {
			t.Fatalf("row %q: kind %q, phi %g, param %g", r.ID, r.Kind, r.Phi, r.Param)
		}
	}
}

func TestParallelReplicatedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{1, 2, 3, 4}
	m := TaskMatrix{Kind: "modes", Modes: []string{"fair"}, ReplicationSeeds: seeds}
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	seq, err := Execute(ctx, cs, m, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs2 := smallCase()
	cs2.Workload.Synthetic.N = 30
	par, err := Execute(ctx, cs2, m, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := normalizedJSON(t, seq), normalizedJSON(t, par); !bytes.Equal(want, got) {
		t.Fatalf("replication diverges:\nseq %s\npar %s", want, got)
	}
	for i, r := range par.Runs {
		if r.WorkloadSeed != seeds[i] {
			t.Fatalf("row %d ran seed %d, want %d", i, r.WorkloadSeed, seeds[i])
		}
	}
	agg, err := records.AggregateManifests(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != 1 || agg.Rows[0].N != len(seeds) || agg.Rows[0].Metrics["tsim_s"].CI95 <= 0 {
		t.Fatalf("aggregate incomplete: %+v", agg.Rows)
	}
}

// TestParallelDoesNotMutateCaseStudy verifies tasks run on private
// snapshots: the shared case study's config must not move while a
// parallel sweep is in flight.
func TestParallelDoesNotMutateCaseStudy(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	savedCore := cs.Model
	savedWorkload, savedSynthetic := *cs.Workload, *cs.Workload.Synthetic
	opt := ExecOptions{Workers: 2}
	if _, err := Execute(context.Background(), cs, TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.9, 0.95}}, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), cs, TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{5, 6}}, opt); err != nil {
		t.Fatal(err)
	}
	if cs.Model != savedCore || *cs.Workload != savedWorkload || *cs.Workload.Synthetic != savedSynthetic {
		t.Fatalf("case study mutated by parallel runs: core %+v, workload %+v", cs.Model, *cs.Workload.Synthetic)
	}
}

// TestParallelErrorPropagates drives the error path end to end: an
// unplaceable workload must fail the pool run and surface the task
// label, not hang or return partial results silently.
func TestParallelErrorPropagates(t *testing.T) {
	cs := smallCase()
	cs.Workload.Synthetic.N = 10
	// Jobs larger than the whole cloud can never be placed; every task
	// fails fast inside workload validation.
	cs.Workload.Synthetic.MinQubits = 10000
	cs.Workload.Synthetic.MaxQubits = 10001
	_, err := Execute(context.Background(), cs, TaskMatrix{Kind: "modes"}, ExecOptions{Workers: 4})
	if err == nil {
		t.Fatal("impossible workload accepted")
	}
}

func TestParallelProgressAndArtifacts(t *testing.T) {
	var mu sync.Mutex
	var events []runner.Progress
	cs := smallCase()
	cs.Workload.Synthetic.N = 30
	opt := ExecOptions{
		Workers: 2,
		OnProgress: func(p runner.Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	m, err := Execute(context.Background(), cs, TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2, 3}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d progress events, want 3", len(events))
	}
	if m.Label != "modes" || m.Workers != 2 || len(m.Runs) != 3 {
		t.Fatalf("manifest = %+v", m)
	}
	for i, r := range m.Runs {
		if r.ID != records.ReplicaID("mode/speed", int64(i+1)) || r.Kind != "mode" || r.Mode != "speed" || r.Jobs != 30 {
			t.Fatalf("manifest run %d = %+v", i, r)
		}
		if r.WallMS <= 0 {
			t.Fatalf("manifest run %d missing wall time", i)
		}
		if r.WorkloadSeed != int64(i+1) {
			t.Fatalf("manifest run %d seed %d", i, r.WorkloadSeed)
		}
	}
}

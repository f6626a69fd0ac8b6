package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/records"
)

// TestReplicationExpansion pins the fan-out: task-major order, replica
// IDs via records.ReplicaID, Replications: N lowered as the seeds 1..N
// onto every matrix without a seed list, and a matrix's own list kept.
func TestReplicationExpansion(t *testing.T) {
	spec := Spec{
		Replications: 3,
		Matrices: []TaskMatrix{
			{Kind: "modes", Modes: []string{"speed", "fair"}, ReplicationSeeds: []int64{7, 8}},
			{Kind: "modes", Modes: []string{"rlbase"}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	effective := spec.runMatrices()
	for i, want := range [][]string{
		{"mode/speed@seed7", "mode/speed@seed8", "mode/fair@seed7", "mode/fair@seed8"},
		{"mode/rlbase@seed1", "mode/rlbase@seed2", "mode/rlbase@seed3"},
	} {
		labels, err := effective[i].TaskLabels()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(labels, want) {
			t.Fatalf("matrix %d labels = %v, want %v", i, labels, want)
		}
	}
	// The declared spec is untouched — lowering happens on a copy.
	if len(spec.Matrices[1].ReplicationSeeds) != 0 {
		t.Fatal("runMatrices mutated the spec's own matrices")
	}
}

// TestReplicatedSweepComposesMutations: replicating a sweep matrix
// keeps the swept value AND overrides the workload seed — the two
// mutations compose rather than clobber.
func TestReplicatedSweepComposesMutations(t *testing.T) {
	m := TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.9}, ReplicationSeeds: []int64{5}}
	specs, err := m.specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].id != "phi-sweep/speed/0.9@seed5" {
		t.Fatalf("specs = %+v", specs)
	}
	snap := smallCase()
	specs[0].mutate(snap)
	if snap.Model.Phi != 0.9 || snap.Workload.Synthetic.Seed != 5 {
		t.Fatalf("mutations did not compose: phi=%g seed=%d", snap.Model.Phi, snap.Workload.Synthetic.Seed)
	}
}

// TestReplicatedSpecExecutorEquivalence is the tentpole's acceptance
// gate: one replicated Spec produces bit-identical manifests — and
// therefore bit-identical aggregated manifests — on one worker and on
// a four-worker pool, the per-seed rows record the replication seeds, and significance-diffing two such runs is Empty
// while a run over different seeds is flagged.
func TestReplicatedSpecExecutorEquivalence(t *testing.T) {
	spec := specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed", "fair"}, ReplicationSeeds: []int64{5, 6, 7}})

	manifests := make([]*records.RunManifest, 0, 2)
	for _, workers := range []int{1, 4} {
		m, err := Run(context.Background(), spec, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if len(m.Runs) != 6 {
			t.Fatalf("%d workers: %d rows, want 6", workers, len(m.Runs))
		}
		manifests = append(manifests, m)
	}
	wantRaw := normalizedJSON(t, manifests[0])
	var wantAgg bytes.Buffer
	agg0, err := records.AggregateManifests(manifests[0])
	if err != nil {
		t.Fatal(err)
	}
	agg0.Label = ""
	if err := agg0.WriteJSON(&wantAgg); err != nil {
		t.Fatal(err)
	}
	for i, m := range manifests[1:] {
		if got := normalizedJSON(t, m); !bytes.Equal(wantRaw, got) {
			t.Fatalf("run %d manifest diverges:\n%s\n%s", i+1, got, wantRaw)
		}
		agg, err := records.AggregateManifests(m)
		if err != nil {
			t.Fatal(err)
		}
		agg.Label = ""
		var got bytes.Buffer
		if err := agg.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantAgg.Bytes(), got.Bytes()) {
			t.Fatalf("run %d aggregated manifest diverges:\n%s\n%s", i+1, got.Bytes(), wantAgg.Bytes())
		}
	}

	// The per-seed rows genuinely ran the replication seeds.
	for i, r := range manifests[0].Runs {
		_, seed, ok := records.SplitReplicaID(r.ID)
		if !ok || seed != r.WorkloadSeed {
			t.Fatalf("row %d (%s) seed %d not a replica of its ID", i, r.ID, r.WorkloadSeed)
		}
	}
	if agg0.Rows[0].N != 3 || !reflect.DeepEqual(agg0.Rows[0].Seeds, []int64{5, 6, 7}) {
		t.Fatalf("aggregated row = %+v", agg0.Rows[0])
	}

	// The two runs' aggregations are statistically indistinguishable;
	// a run over different seeds is flagged (drifted seed config at
	// minimum — it is a different replication by construction).
	aggB, err := records.AggregateManifests(manifests[1])
	if err != nil {
		t.Fatal(err)
	}
	d := records.DiffAggregated(agg0, aggB)
	if !d.Empty() {
		var buf bytes.Buffer
		d.Write(&buf)
		t.Fatalf("same spec, two pool sizes, significant diff:\n%s", buf.String())
	}
	shifted := specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed", "fair"}, ReplicationSeeds: []int64{8, 9, 10}})
	sm, err := Run(context.Background(), shifted, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aggS, err := records.AggregateManifests(sm)
	if err != nil {
		t.Fatal(err)
	}
	d = records.DiffAggregated(agg0, aggS)
	if d.Empty() {
		t.Fatal("different replication seeds diffed Empty")
	}
}

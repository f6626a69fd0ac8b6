package records

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestReplicaID(t *testing.T) {
	id := ReplicaID("mode/speed", 7)
	if id != "mode/speed@seed7" {
		t.Fatalf("ReplicaID = %q", id)
	}
	base, seed, ok := SplitReplicaID(id)
	if !ok || base != "mode/speed" || seed != 7 {
		t.Fatalf("SplitReplicaID = %q, %d, %v", base, seed, ok)
	}
	for _, plain := range []string{"mode/speed", "replicate/speed/seed3", "mode/speed@seedx", ""} {
		if _, _, ok := SplitReplicaID(plain); ok {
			t.Fatalf("%q parsed as a replica ID", plain)
		}
	}
	// Negative seeds survive the round trip.
	base, seed, ok = SplitReplicaID(ReplicaID("a", -4))
	if !ok || base != "a" || seed != -4 {
		t.Fatalf("negative seed round trip = %q, %d, %v", base, seed, ok)
	}
}

// replicatedFixture is a manifest as the spec-level replication fan-out
// produces it: two base tasks × three seeds each, plus one
// unreplicated rlbase row that must aggregate as a singleton.
func replicatedFixture() *RunManifest {
	steps, rlSeed, det := 2048, int64(7), false
	m := &RunManifest{Label: "replicated", Workers: 2}
	add := func(base string, mode string, seed int64, tsim, muF float64) {
		m.Runs = append(m.Runs, RunSummary{
			ID: ReplicaID(base, seed), Kind: "mode", Mode: mode,
			WorkloadSeed: seed, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05, Jobs: 30,
			TsimS: tsim, FidelityMean: muF, FidelityStd: 0.02,
			TcommS: 40, MeanDevicesPerJob: 2.5, MeanWaitS: 9, WallMS: 12,
		})
	}
	add("mode/speed", "speed", 1, 100, 0.70)
	add("mode/speed", "speed", 2, 104, 0.71)
	add("mode/speed", "speed", 3, 102, 0.69)
	add("mode/fair", "fair", 1, 110, 0.72)
	add("mode/fair", "fair", 2, 114, 0.73)
	add("mode/fair", "fair", 3, 112, 0.71)
	m.Runs = append(m.Runs, RunSummary{
		ID: "mode/rlbase", Kind: "mode", Mode: "rlbase",
		WorkloadSeed: 1, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05, Jobs: 30,
		TrainSteps: &steps, RLSeed: &rlSeed, RLDeterministic: &det,
		TsimS: 120, FidelityMean: 0.66, FidelityStd: 0.03,
		TcommS: 55, MeanDevicesPerJob: 3.0, MeanWaitS: 14, WallMS: 20,
	})
	return m
}

func TestAggregateManifestsFolds(t *testing.T) {
	agg, err := AggregateManifests(replicatedFixture())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Label != "replicated" || len(agg.Rows) != 3 {
		t.Fatalf("agg = %q with %d rows", agg.Label, len(agg.Rows))
	}
	speed := agg.Rows[0]
	if speed.ID != "mode/speed" || speed.N != 3 || !reflect.DeepEqual(speed.Seeds, []int64{1, 2, 3}) {
		t.Fatalf("speed row = %+v", speed)
	}
	want := stats.AggregateSamples([]float64{100, 104, 102})
	got := speed.Metrics["tsim_s"]
	if got.Mean != want.Mean || got.Std != want.Std || got.StdErr != want.StdErr || got.CI95 != want.CI95 {
		t.Fatalf("tsim_s aggregate = %+v, want %+v", got, want)
	}
	if speed.Metrics["fidelity_std"].Std != 0 {
		t.Fatalf("constant metric grew dispersion: %+v", speed.Metrics["fidelity_std"])
	}
	// The singleton rlbase row: N=1, no dispersion, pointers carried.
	rl := agg.Rows[2]
	if rl.ID != "mode/rlbase" || rl.N != 1 || len(rl.Seeds) != 1 || rl.Seeds[0] != 1 {
		t.Fatalf("rlbase row = %+v", rl)
	}
	if rl.TrainSteps == nil || *rl.TrainSteps != 2048 || rl.RLDeterministic == nil {
		t.Fatalf("rlbase config pointers lost: %+v", rl)
	}
	if m := rl.Metrics["tsim_s"]; m.Mean != 120 || m.Std != 0 || m.CI95 != 0 {
		t.Fatalf("singleton aggregate = %+v", m)
	}
}

func TestAggregateManifestsErrors(t *testing.T) {
	dup := replicatedFixture()
	dup.Runs = append(dup.Runs, dup.Runs[0])
	if _, err := AggregateManifests(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate ID: err = %v", err)
	}
	lie := replicatedFixture()
	lie.Runs[1].WorkloadSeed = 99 // ID says seed2
	if _, err := AggregateManifests(lie); err == nil || !strings.Contains(err.Error(), "workload seed") {
		t.Fatalf("seed mismatch: err = %v", err)
	}
	drift := replicatedFixture()
	drift.Runs[2].Phi = 0.90 // third speed replica ran a different phi
	if _, err := AggregateManifests(drift); err == nil || !strings.Contains(err.Error(), "phi") {
		t.Fatalf("config drift: err = %v", err)
	}
	// A bare row colliding with a replica group's base ID (in either
	// order) is a different task, not another replica — folding its
	// observation in would silently corrupt the statistics.
	bare := replicatedFixture()
	collide := bare.Runs[0]
	collide.ID = "mode/speed"
	bare.Runs = append(bare.Runs, collide)
	if _, err := AggregateManifests(bare); err == nil || !strings.Contains(err.Error(), "mixes replica and non-replica") {
		t.Fatalf("bare row joined a replica group: err = %v", err)
	}
	bareFirst := replicatedFixture()
	bareFirst.Runs = append([]RunSummary{collide}, bareFirst.Runs...)
	if _, err := AggregateManifests(bareFirst); err == nil || !strings.Contains(err.Error(), "mixes replica and non-replica") {
		t.Fatalf("replicas joined a bare row's group: err = %v", err)
	}
}

// TestGoldenAggregatedRoundTrip pins the aggregated manifest encoding
// byte for byte, JSON and CSV, and proves ReadAggregatedJSON restores
// the exact bytes — aggregated manifests are CI gate inputs and trend
// history, so their format must not drift silently.
func TestGoldenAggregatedRoundTrip(t *testing.T) {
	agg, err := AggregateManifests(replicatedFixture())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "aggregated_golden.json", buf.Bytes())

	f, err := os.Open(goldenPath(t, "aggregated_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := ReadAggregatedJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "aggregated_golden.json", again.Bytes())

	var csvBuf bytes.Buffer
	if err := agg.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "aggregated_golden.csv", csvBuf.Bytes())
}

func mustAggregate(t *testing.T, m *RunManifest) *AggregatedManifest {
	t.Helper()
	agg, err := AggregateManifests(m)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestDiffAggregatedIdentical: two aggregations of the same run are
// statistically indistinguishable, and the report says so.
func TestDiffAggregatedIdentical(t *testing.T) {
	a := mustAggregate(t, replicatedFixture())
	b := mustAggregate(t, replicatedFixture())
	d := DiffAggregated(a, b)
	if !d.Empty() || d.Compared != 3 {
		t.Fatalf("diff = %+v", d)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "agree at alpha=0.05 on all 3") {
		t.Fatalf("report = %q", buf.String())
	}
}

// TestDiffAggregatedShiftedMean: a mean moved far beyond the replicas'
// dispersion is flagged through Welch's t; noise within the dispersion
// is not.
func TestDiffAggregatedShiftedMean(t *testing.T) {
	a := mustAggregate(t, replicatedFixture())
	shifted := replicatedFixture()
	for i := range shifted.Runs {
		if strings.HasPrefix(shifted.Runs[i].ID, "mode/speed") {
			shifted.Runs[i].TsimS += 50 // ~25 sample stds
		}
	}
	b := mustAggregate(t, shifted)
	d := DiffAggregated(a, b)
	if d.Empty() || len(d.Rows) != 1 || d.Rows[0].ID != "mode/speed" {
		t.Fatalf("diff = %+v", d)
	}
	sig := d.Rows[0].Metrics
	if len(sig) != 1 || sig[0].Name != "tsim_s" || sig[0].Method != "welch" {
		t.Fatalf("metrics = %+v", sig)
	}
	if sig[0].Delta != 50 || sig[0].T <= 0 || sig[0].DF <= 0 {
		t.Fatalf("delta/t/df = %+v", sig[0])
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "welch t=") || !strings.Contains(buf.String(), "tsim_s") {
		t.Fatalf("report = %q", buf.String())
	}

	// Noise within the dispersion: nudge one replica by a fraction of
	// the sample std — the means move, but not significantly.
	noisy := replicatedFixture()
	noisy.Runs[0].TsimS += 0.5
	nd := DiffAggregated(a, mustAggregate(t, noisy))
	if !nd.Empty() {
		var buf bytes.Buffer
		nd.Write(&buf)
		t.Fatalf("sub-noise movement flagged significant:\n%s", buf.String())
	}
}

// TestDiffAggregatedSingletonFallback: N=1 rows have no dispersion
// estimate, so the CI95-overlap fallback degenerates to exact mean
// equality — the determinism gate on unreplicated tasks.
func TestDiffAggregatedSingletonFallback(t *testing.T) {
	a := mustAggregate(t, replicatedFixture())
	moved := replicatedFixture()
	last := len(moved.Runs) - 1
	moved.Runs[last].TcommS += 1e-9 // the singleton rlbase row
	d := DiffAggregated(a, mustAggregate(t, moved))
	if d.Empty() || d.Rows[0].ID != "mode/rlbase" || d.Rows[0].Metrics[0].Method != "ci95-overlap" {
		t.Fatalf("diff = %+v", d)
	}
}

// TestDiffAggregatedNaN: NaN means are equal to themselves and
// definitely different from real means.
func TestDiffAggregatedNaN(t *testing.T) {
	nanRow := func() *AggregatedManifest {
		return &AggregatedManifest{Label: "n", Rows: []AggregatedRow{{
			ID: "mode/speed", Kind: "mode", Mode: "speed", N: 1, Seeds: []int64{1},
			Metrics: map[string]MetricAggregate{"mean_wait_s": {Mean: math.NaN()}},
		}}}
	}
	d := DiffAggregated(nanRow(), nanRow())
	if !d.Empty() {
		t.Fatalf("NaN vs NaN flagged: %+v", d.Rows)
	}
	finite := nanRow()
	finite.Rows[0].Metrics["mean_wait_s"] = MetricAggregate{Mean: 4}
	d = DiffAggregated(nanRow(), finite)
	if d.Empty() || d.Rows[0].Metrics[0].Method != "nan" {
		t.Fatalf("NaN vs real not flagged: %+v", d)
	}
}

// TestDiffAggregatedConfigAndCoverage: drifted seed lists are config
// drift (not metric noise), and one-sided tasks are listed.
func TestDiffAggregatedConfigAndCoverage(t *testing.T) {
	a := mustAggregate(t, replicatedFixture())
	otherSeeds := replicatedFixture()
	for i := range otherSeeds.Runs {
		base, seed, ok := SplitReplicaID(otherSeeds.Runs[i].ID)
		if ok && base == "mode/fair" {
			otherSeeds.Runs[i].ID = ReplicaID(base, seed+10)
			otherSeeds.Runs[i].WorkloadSeed += 10
		}
	}
	d := DiffAggregated(a, mustAggregate(t, otherSeeds))
	found := false
	for _, row := range d.Rows {
		for _, c := range row.Config {
			if row.ID == "mode/fair" && c.Name == "seeds" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("seed-list drift not reported as config: %+v", d.Rows)
	}

	onlyB := mustAggregate(t, replicatedFixture())
	onlyB.Rows = onlyB.Rows[:2]
	d = DiffAggregated(a, onlyB)
	if len(d.OnlyInA) != 1 || d.OnlyInA[0] != "mode/rlbase" || d.Compared != 2 {
		t.Fatalf("one-sided diff = %+v", d)
	}
}

// TestDiffAggregatedTracePath: the aggregated row carries trace_path,
// so two one-row runs that replayed different traces are configuration
// drift under DiffAggregated, as under DiffManifests.
func TestDiffAggregatedTracePath(t *testing.T) {
	run := func(trace string) *RunManifest {
		return &RunManifest{Label: "trace", Runs: []RunSummary{{
			ID: "mode/speed", Kind: "modes", Mode: "speed", FleetSeed: 2025, Jobs: 8, TracePath: trace, TsimS: 10,
		}}}
	}
	a, b := mustAggregate(t, run("a.csv")), mustAggregate(t, run("b.csv"))
	if a.Rows[0].TracePath != "a.csv" {
		t.Fatalf("aggregated row trace_path %q, want a.csv", a.Rows[0].TracePath)
	}
	d := DiffAggregated(a, b)
	want := []ConfigDelta{{Name: "trace_path", A: "a.csv", B: "b.csv"}}
	if len(d.Rows) != 1 || !reflect.DeepEqual(d.Rows[0].Config, want) || len(d.Rows[0].Metrics) != 0 {
		t.Fatalf("DiffAggregated rows = %+v, want one with config %+v", d.Rows, want)
	}
}

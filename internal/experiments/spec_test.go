package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/records"
)

// -update regenerates the golden spec fixture:
//
//	go test ./internal/experiments -run SpecGolden -update
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenSpec exercises every Spec field: overrides behind pointers
// (seed 0 must survive), a PPO override, spec-level replication (which
// a matrix with its own replication seeds keeps them over), and two
// matrices.
func goldenSpec() *Spec {
	seed := int64(0)
	fleetSeed := int64(2025)
	ppo := Default().PPO
	ppo.NSteps = 512
	ppo.NEpochs = 3
	return &Spec{
		Name:       "golden",
		Scenario:   "paper",
		Jobs:       30,
		Seed:       &seed,
		FleetSeed:  &fleetSeed,
		TrainSteps: 2048,
		PPO:        &ppo,
		Matrices: []TaskMatrix{
			{Kind: "modes", Modes: []string{"speed", "fair"}},
			{Kind: "modes", Modes: []string{"fidelity"}, ReplicationSeeds: []int64{1, 2, 3}},
		},
		Replications: 2,
	}
}

// TestSpecGoldenRoundTrip pins the spec file format: WriteJSON's bytes
// must match the committed fixture, and LoadSpec must restore the
// exact value and re-emit the same bytes. Spec files are the public
// currency of the experiments CLI, so their encoding must not drift
// silently.
func TestSpecGoldenRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "spec_golden.json")
	var buf bytes.Buffer
	if err := goldenSpec().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("spec encoding drifted from golden fixture (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	loaded, err := LoadSpec(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, goldenSpec()) {
		t.Fatalf("loaded spec differs from source:\n%+v\n%+v", loaded, goldenSpec())
	}
	var again bytes.Buffer
	if err := loaded.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("re-encoding a loaded spec changed its bytes")
	}
}

// TestLoadSpecRejectsUnknownFields: a typo'd key must not silently
// fall back to a default.
func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	_, err := LoadSpec(strings.NewReader(`{"scenario":"paper","matricies":[{"kind":"modes"}]}`))
	if err == nil || !strings.Contains(err.Error(), "matricies") {
		t.Fatalf("err = %v, want unknown-field rejection", err)
	}
}

// TestLoadSpecRefusesRemovedReplication: replication over workload
// seeds has one form, the matrix-level fan-out. The spec-level seed
// list and the "replicate" matrix kind (with its "seeds" list) are
// refused, each with an error naming it.
func TestLoadSpecRefusesRemovedReplication(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{`{"matrices":[{"kind":"modes"}],"replication_seeds":[1,2]}`, `unknown field "replication_seeds"`},
		{`{"matrices":[{"kind":"replicate","mode":"speed"}]}`, `unknown task-matrix kind "replicate"`},
		{`{"matrices":[{"kind":"modes","seeds":[1,2]}]}`, `unknown field "seeds"`},
	} {
		if _, err := LoadSpec(strings.NewReader(c.spec)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.spec, err, c.want)
		}
	}
}

// TestSpecHostsValidation: a spec names no hosts — every task runs on
// the in-process pool — so a "hosts" list is an unknown field and the
// spec is refused, not run somewhere other than the file says.
func TestSpecHostsValidation(t *testing.T) {
	_, err := LoadSpec(strings.NewReader(`{"matrices":[{"kind":"modes"}],"hosts":["10.0.0.1:7070"]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "hosts"`) {
		t.Fatalf("err = %v, want unknown-field rejection naming hosts", err)
	}
}

// TestLoadSpecRejectsTrailingContent: content after the JSON document
// (a duplicated object from a bad paste, merge-conflict leftovers)
// must not be silently ignored — the decoder would otherwise run only
// the first object.
func TestLoadSpecRejectsTrailingContent(t *testing.T) {
	_, err := LoadSpec(strings.NewReader(`{"matrices":[{"kind":"modes"}]}{"jobs":999}`))
	if err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Fatalf("err = %v, want trailing-content rejection", err)
	}
	// Trailing whitespace and a final newline stay legal.
	if _, err := LoadSpec(strings.NewReader("{\"matrices\":[{\"kind\":\"modes\"}]}\n  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// TestSpecValidate drives every planning-time rejection: unknown
// scenario, empty matrix list, malformed matrices, bad overrides, and
// task IDs duplicated across matrices.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown scenario", Spec{Scenario: "warp", Matrices: []TaskMatrix{{Kind: "modes"}}}, "unknown scenario"},
		{"no matrices", Spec{Scenario: "paper"}, "no task matrices"},
		{"bad matrix kind", Spec{Matrices: []TaskMatrix{{Kind: "warp"}}}, "unknown task-matrix kind"},
		{"bad mode", Spec{Matrices: []TaskMatrix{{Kind: "modes", Modes: []string{"warp"}, ReplicationSeeds: []int64{1}}}}, "unknown mode"},
		{"negative jobs", Spec{Jobs: -1, Matrices: []TaskMatrix{{Kind: "modes"}}}, "jobs"},
		{"negative train", Spec{TrainSteps: -1, Matrices: []TaskMatrix{{Kind: "modes"}}}, "train_steps"},
		{"duplicate across matrices", Spec{Matrices: []TaskMatrix{
			{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2}},
			{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{2, 3}},
		}}, "twice"},
		{"negative replications", Spec{Replications: -1, Matrices: []TaskMatrix{{Kind: "modes"}}}, "replications"},
		{"replications above max", Spec{Replications: 100000000000000, Matrices: []TaskMatrix{{Kind: "modes"}}}, "MaxReplications"},
		{"duplicate replication seeds", Spec{Matrices: []TaskMatrix{{Kind: "modes", ReplicationSeeds: []int64{4, 4}}}}, "twice"},
		{"replicated duplicate across matrices", Spec{Replications: 2, Matrices: []TaskMatrix{
			{Kind: "modes", Modes: []string{"speed"}},
			{Kind: "modes", Modes: []string{"speed"}},
		}}, "twice"},
		{"matrix above max tasks", Spec{Matrices: []TaskMatrix{
			{Kind: "phi-sweep", Mode: "speed", Values: make([]float64, 300), ReplicationSeeds: make([]int64, 400)},
		}}, "MaxTasks"},
		{"spec above max tasks", Spec{Replications: MaxReplications, Matrices: []TaskMatrix{
			{Kind: "modes"}, {Kind: "modes"}, {Kind: "modes"},
		}}, "spec expands to more than MaxTasks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
	good := Spec{Matrices: []TaskMatrix{
		{Kind: "modes"},
		{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.9}, ReplicationSeeds: []int64{1, 2}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSpecCaseStudyOverrides: only the set overrides move off the
// scenario's defaults.
func TestSpecCaseStudyOverrides(t *testing.T) {
	seed := int64(0)
	spec := Spec{Scenario: "paper", Jobs: 42, Seed: &seed, TrainSteps: 512}
	cs, err := spec.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	def := Default()
	if cs.Workload.Synthetic.N != 42 || cs.Workload.Synthetic.Seed != 0 || cs.TrainSteps != 512 {
		t.Fatalf("overrides not applied: %+v", *cs.Workload.Synthetic)
	}
	if cs.FleetSeed != def.FleetSeed || !reflect.DeepEqual(cs.PPO, def.PPO) {
		t.Fatal("unset overrides moved off the scenario defaults")
	}
	// No overrides at all: the empty scenario is "paper" verbatim.
	plain, err := (&Spec{}).CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if *plain.Workload.Synthetic != *def.Workload.Synthetic || plain.Model != def.Model || plain.TrainSteps != def.TrainSteps {
		t.Fatalf("empty spec diverges from Default(): %+v", *plain.Workload.Synthetic)
	}
}

// TestScenarioRegistry: every built-in resolves, and an unknown name
// fails with the list.
func TestScenarioRegistry(t *testing.T) {
	want := []string{"calibration-drift", "hetero-fleet", "paper", "stress-arrivals", "trace-replay"}
	if got := ScenarioNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ScenarioNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		cs, err := NewScenario(name)
		if err != nil || cs == nil {
			t.Fatalf("NewScenario(%s): %v", name, err)
		}
	}
	if _, err := NewScenario("warp"); err == nil || !strings.Contains(err.Error(), "paper") {
		t.Fatalf("err = %v, want the built-in scenarios listed", err)
	}
}

// TestBuiltinScenarioVariants: the shipped variants genuinely move the
// axes they claim — fleet preset and arrival pressure — and their
// workloads still satisfy the Eq. 1 constraint against their own
// fleets.
func TestBuiltinScenarioVariants(t *testing.T) {
	hetero, err := NewScenario("hetero-fleet")
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Preset != "hetero" {
		t.Fatalf("hetero-fleet preset = %q", hetero.Preset)
	}
	hetero.Workload.Synthetic.N = 20
	if _, err := hetero.Jobs(); err != nil {
		t.Fatalf("hetero workload violates its own fleet constraint: %v", err)
	}
	stress, err := NewScenario("stress-arrivals")
	if err != nil {
		t.Fatal(err)
	}
	if stress.Workload.Synthetic.MeanInterarrival >= Default().Workload.Synthetic.MeanInterarrival {
		t.Fatalf("stress-arrivals interarrival %g not tighter than paper %g",
			stress.Workload.Synthetic.MeanInterarrival, Default().Workload.Synthetic.MeanInterarrival)
	}
}

// TestHeteroFleetScenarioRuns drives a scaled-down hetero-fleet
// simulation end to end through Run: the mixed-capacity preset must
// survive the scenario → spec → Run path, not just construct.
func TestHeteroFleetScenarioRuns(t *testing.T) {
	spec := Spec{
		Scenario: "hetero-fleet",
		Jobs:     20,
		Matrices: []TaskMatrix{{Kind: "modes", Modes: []string{"speed", "fair"}}},
	}
	m, err := Run(context.Background(), spec, ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("%d rows", len(m.Runs))
	}
	for _, r := range m.Runs {
		if r.Jobs != 20 || r.TsimS <= 0 || r.FidelityMean <= 0 || r.FidelityMean >= 1 {
			t.Fatalf("degenerate hetero row: %+v", r)
		}
	}
}

// ptr64 is a test helper for the pointer-typed spec overrides.
func ptr64(v int64) *int64 { return &v }

// specForSmallCase mirrors smallCase() as a declarative paper-scenario
// spec with 30 jobs — the configuration TestPinnedManifestDigests pins.
func specForSmallCase(matrices ...TaskMatrix) Spec {
	small := smallCase()
	ppo := small.PPO
	return Spec{
		Scenario:   "paper",
		Jobs:       30,
		Seed:       ptr64(small.Workload.Synthetic.Seed),
		TrainSteps: small.TrainSteps,
		PPO:        &ppo,
		Matrices:   matrices,
	}
}

// Digests from TestPinnedManifestDigests, which also pinned the legacy
// per-artifact entry points' results on the same configuration.
const (
	pinnedModes    = "7708b152b46bbe72339ebdab7eaa397feb3aaa74ec9250ade595263c35ffb0e6"
	pinnedPhiSweep = "d76b538ce39b1744e79b5bc2a7bdc267fc72c654ae2f1e32094ddec4d5d66521"
	pinnedReplicas = "153e4fb32021682f6fdba366b8584abc0fe862db3f1e46837dd99ab26a80cd45"
)

// rowsDigest is the SHA-256 of the normalized manifest holding rows.
func rowsDigest(t *testing.T, rows []records.RunSummary) string {
	t.Helper()
	sum := sha256.Sum256(normalizedJSON(t, &records.RunManifest{Runs: rows}))
	return hex.EncodeToString(sum[:])
}

// TestRunSpecMatchesLegacyPaths is the redesign's acceptance gate: for
// fixed seeds, Run with the "paper" scenario produces the pinned
// Table 2 manifest — the result the legacy per-artifact entry points
// produced — on one worker and on a four-worker pool.
func TestRunSpecMatchesLegacyPaths(t *testing.T) {
	spec := specForSmallCase(TaskMatrix{Kind: "modes"})
	for _, workers := range []int{1, 4} {
		m, err := Run(context.Background(), spec, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := rowsDigest(t, m.Runs); got != pinnedModes {
			t.Fatalf("%d workers: manifest digest %s, want the pinned %s", workers, got, pinnedModes)
		}
	}
}

// TestRunMultiMatrixSpec: matrices execute in order into one combined
// manifest whose per-matrix row blocks match the pinned single-matrix
// manifests row for row.
func TestRunMultiMatrixSpec(t *testing.T) {
	seeds := []int64{1, 2, 3}
	phis := []float64{0.85, 0.9, 0.95, 1}
	spec := specForSmallCase(
		TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: seeds},
		TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: phis},
	)
	m, err := Run(context.Background(), spec, ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Label != "paper:modes+phi-sweep/speed" {
		t.Fatalf("label = %q", m.Label)
	}
	if len(m.Runs) != len(seeds)+len(phis) {
		t.Fatalf("%d rows, want %d", len(m.Runs), len(seeds)+len(phis))
	}
	if got := rowsDigest(t, m.Runs[:len(seeds)]); got != pinnedReplicas {
		t.Fatalf("replica rows digest %s, want the pinned %s", got, pinnedReplicas)
	}
	if got := rowsDigest(t, m.Runs[len(seeds):]); got != pinnedPhiSweep {
		t.Fatalf("phi-sweep rows digest %s, want the pinned %s", got, pinnedPhiSweep)
	}
}

// TestRunZeroOptionsUsesDefaultPool: the zero ExecOptions runs on the
// default pool and records its resolved size, GOMAXPROCS.
func TestRunZeroOptionsUsesDefaultPool(t *testing.T) {
	spec := specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2}})
	m, err := Run(context.Background(), spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 || m.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("manifest = %d rows, workers %d, want 2 rows on %d workers", len(m.Runs), m.Workers, runtime.GOMAXPROCS(0))
	}
}

// TestRunInvalidSpec: Run validates before executing anything.
func TestRunInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Scenario: "warp", Matrices: []TaskMatrix{{Kind: "modes"}}}, ExecOptions{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Run(context.Background(), Spec{}, ExecOptions{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestLoadSpecFileNamesPackageOnce: an error from inside a matrix keeps
// its detail and the path, and names the package once, though both the
// matrix and the spec add context to it.
func TestLoadSpecFileNamesPackageOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"matrices":[{"kind":"phi-sweep","mode":"speed"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSpecFile(path)
	if err == nil {
		t.Fatal("an empty sweep loaded")
	}
	msg := err.Error()
	if n := strings.Count(msg, "experiments:"); n != 1 || !strings.Contains(msg, path) ||
		!strings.Contains(msg, "spec matrix 0: empty sweep") {
		t.Fatalf("error %q: want the path, the matrix, the detail, and %q once (found %d)", msg, "experiments:", n)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/records"
)

// TestCommittedSpecsLoad: every spec file shipped under specs/ (the
// README examples and the CI smoke specs) must load and validate — a
// broken example is a broken promise. chaos-*.json files are fault
// plans, validated by their own loader.
func TestCommittedSpecsLoad(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no committed spec files found under specs/")
	}
	for _, path := range matches {
		if strings.HasPrefix(filepath.Base(path), "chaos-") {
			if _, err := faults.LoadPlan(path); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			continue
		}
		if _, err := experiments.LoadSpecFile(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestCompileSpecRoundTrips: every manifest artifact compiles to a
// valid Spec that survives the spec-file encoding unchanged — the
// flag path and the -spec path describe runs in the same currency.
func TestCompileSpecRoundTrips(t *testing.T) {
	for _, artifact := range []string{"table2", "replicate", "ablations"} {
		spec, err := compileSpec(artifact, "", 30, 1, 2025, 2048, 3)
		if err != nil {
			t.Fatalf("%s: %v", artifact, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: compiled spec invalid: %v", artifact, err)
		}
		var buf bytes.Buffer
		if err := spec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := experiments.LoadSpec(&buf)
		if err != nil {
			t.Fatalf("%s: reloading compiled spec: %v", artifact, err)
		}
		if !reflect.DeepEqual(*loaded, spec) {
			t.Fatalf("%s: compiled spec does not round-trip:\n%+v\n%+v", artifact, spec, *loaded)
		}
	}
	if _, err := compileSpec("fig5", "", 30, 1, 2025, 2048, 3); err == nil {
		t.Fatal("figure artifact compiled to a spec")
	}
}

// TestCompileSpecShapes pins the task matrices each artifact lowers
// to: table2 is the four-mode fan-out, replicate is the same matrix
// fanned out over seeds 1..reps, ablations is the paper's three sweeps.
func TestCompileSpecShapes(t *testing.T) {
	table2, _ := compileSpec("table2", "stress-arrivals", 50, 9, 7, 100, 3)
	if table2.Scenario != "stress-arrivals" || table2.Jobs != 50 || *table2.Seed != 9 ||
		*table2.FleetSeed != 7 || table2.TrainSteps != 100 {
		t.Fatalf("flag overrides lost: %+v", table2)
	}
	if len(table2.Matrices) != 1 || table2.Matrices[0].Kind != "modes" {
		t.Fatalf("table2 matrices = %+v", table2.Matrices)
	}
	rep, _ := compileSpec("replicate", "", 30, 1, 2025, 2048, 3)
	if len(rep.Matrices) != 1 || rep.Matrices[0].Kind != "modes" || rep.Replications != 3 {
		t.Fatalf("replicate spec = %+v, want one modes matrix with replications 3", rep)
	}
	abl, _ := compileSpec("ablations", "", 30, 1, 2025, 2048, 3)
	kinds := make([]string, len(abl.Matrices))
	for i, m := range abl.Matrices {
		kinds[i] = m.Kind
	}
	if !reflect.DeepEqual(kinds, []string{"phi-sweep", "lambda-sweep", "rl-deploy"}) {
		t.Fatalf("ablation kinds = %v", kinds)
	}
}

// TestRunFiguresAllMatchesCompiledSpecs: -artifact all executes the
// Table 2 and ablation matrices on its one trained case study, and its
// manifest must hold exactly the rows — in order — that the table2 and
// then ablations compiled specs produce through Run. "all" and the
// per-artifact runs are then the same experiment.
func TestRunFiguresAllMatchesCompiledSpecs(t *testing.T) {
	const n, seed, fleetSeed, train = 20, 1, 2025, 2048
	dir := t.TempDir()
	if err := runFigures("all", "", n, seed, fleetSeed, train, experiments.ExecOptions{Workers: 2}, "", dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := records.ReadManifestJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "all" {
		t.Fatalf("manifest label %q, want all", got.Label)
	}
	want := &records.RunManifest{}
	for _, artifact := range []string{"table2", "ablations"} {
		spec, err := compileSpec(artifact, "", n, seed, fleetSeed, train, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := experiments.Run(context.Background(), spec, experiments.ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want.Runs = append(want.Runs, m.Runs...)
	}
	if g, w := normalizedRows(t, got), normalizedRows(t, want); !bytes.Equal(g, w) {
		t.Fatalf("-artifact all rows diverge from the compiled table2+ablations specs:\n%s\n%s", g, w)
	}
}

// normalizedRows renders a manifest's rows as JSON with the fields that
// legitimately differ between runs of one experiment zeroed: label,
// worker accounting and wall time.
func normalizedRows(t *testing.T, m *records.RunManifest) []byte {
	t.Helper()
	c := records.RunManifest{Runs: append([]records.RunSummary(nil), m.Runs...)}
	for i := range c.Runs {
		c.Runs[i].WallMS = 0
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateFlags drives the upfront flag-combination validation:
// each rejected combination must fail before any simulation starts,
// with a message naming the offending flag.
func TestValidateFlags(t *testing.T) {
	type args struct {
		set      map[string]bool
		args     []string
		artifact string
		spec     string
		n        int
		train    int
		workers  int
		reps     int
		diff     bool
		sig      bool
		tol      float64
		rtol     float64
		trend    string
		trendTol float64
		cpuProf  string
		memProf  string
	}
	ok := func(a args) args { // fill valid defaults
		if a.artifact == "" {
			a.artifact = "all"
		}
		if a.n == 0 {
			a.n = 1000
		}
		if a.train == 0 {
			a.train = 100000
		}
		if a.reps == 0 {
			a.reps = 5
		}
		if a.set == nil {
			a.set = map[string]bool{}
		}
		if a.trendTol == 0 {
			a.trendTol = 0.05
		}
		return a
	}
	cases := []struct {
		name string
		a    args
		want string // "" means accepted
	}{
		{"defaults", ok(args{}), ""},
		{"diff two paths", ok(args{set: map[string]bool{"diff": true}, args: []string{"a.json", "b.json"}, diff: true}), ""},
		{"diff one path", ok(args{set: map[string]bool{"diff": true}, args: []string{"a.json"}, diff: true}), "exactly two"},
		{"diff with flags", ok(args{set: map[string]bool{"diff": true, "n": true}, args: []string{"a.json", "b.json"}, diff: true}), "no other flags"},
		{"stray args", ok(args{args: []string{"table2"}}), "unexpected arguments"},
		{"workers zero", ok(args{set: map[string]bool{"workers": true}}), "-workers must be >= 1"},
		{"workers set valid", ok(args{set: map[string]bool{"workers": true}, workers: 4}), ""},
		{"replications zero", ok(args{set: map[string]bool{"replications": true}, reps: -5}), "-replications"},
		{"replications above max", ok(args{set: map[string]bool{"replications": true}, reps: experiments.MaxReplications + 1, artifact: "replicate"}), "-replications"},
		{"n zero", ok(args{set: map[string]bool{"n": true}, n: -1}), "-n"},
		{"train zero", ok(args{set: map[string]bool{"train": true}, train: -1}), "-train"},
		{"spec with artifact", ok(args{set: map[string]bool{"spec": true, "artifact": true}, spec: "s.json"}), "-artifact conflicts"},
		{"spec with seed", ok(args{set: map[string]bool{"spec": true, "seed": true}, spec: "s.json"}), "-seed conflicts"},
		{"replications with table2", ok(args{set: map[string]bool{"replications": true}, artifact: "table2", reps: 3}), "-replications"},
		{"replications with fig5", ok(args{set: map[string]bool{"replications": true}, artifact: "fig5", reps: 3}), "-replications"},
		{"replications with replicate", ok(args{set: map[string]bool{"replications": true}, artifact: "replicate", reps: 3}), ""},
		{"seed with replicate", ok(args{set: map[string]bool{"seed": true}, artifact: "replicate"}), "-seed"},
		{"seed with table2", ok(args{set: map[string]bool{"seed": true}, artifact: "table2"}), ""},
		{"outdir with ablations", ok(args{set: map[string]bool{"outdir": true}, artifact: "ablations"}), "-outdir"},
		{"outdir with replicate", ok(args{set: map[string]bool{"outdir": true}, artifact: "replicate"}), "-outdir"},
		{"outdir with table2", ok(args{set: map[string]bool{"outdir": true}, artifact: "table2"}), ""},
		{"diff sig", ok(args{set: map[string]bool{"diff": true, "sig": true}, args: []string{"a.json", "b.json"}, diff: true, sig: true}), ""},
		{"diff tol", ok(args{set: map[string]bool{"diff": true, "tol": true}, args: []string{"a.json", "b.json"}, diff: true, tol: 1e-9}), ""},
		{"diff negative tol", ok(args{set: map[string]bool{"diff": true, "tol": true}, args: []string{"a.json", "b.json"}, diff: true, tol: -1}), ">= 0"},
		{"diff sig with tol", ok(args{set: map[string]bool{"diff": true, "sig": true, "tol": true}, args: []string{"a.json", "b.json"}, diff: true, sig: true, tol: 1e-9}), "drop -tol"},
		{"diff sig with other flags", ok(args{set: map[string]bool{"diff": true, "sig": true, "n": true}, args: []string{"a.json", "b.json"}, diff: true, sig: true}), "no other flags"},
		{"sig without diff", ok(args{set: map[string]bool{"sig": true}, sig: true}), "pass -diff"},
		{"tol without diff", ok(args{set: map[string]bool{"tol": true}, tol: 1e-9}), "pass -diff"},
		{"trend alone", ok(args{set: map[string]bool{"trend": true}, trend: "dir"}), ""},
		{"trend empty value", ok(args{set: map[string]bool{"trend": true}, trend: ""}), "unset shell variable"},
		{"trend with tol", ok(args{set: map[string]bool{"trend": true, "trend-tol": true}, trend: "dir", trendTol: 0.1}), ""},
		{"trend with n", ok(args{set: map[string]bool{"trend": true, "n": true}, trend: "dir"}), "conflicts"},
		{"trend with args", ok(args{set: map[string]bool{"trend": true}, trend: "dir", args: []string{"x"}}), "no positional"},
		{"trend bad tol", ok(args{set: map[string]bool{"trend": true, "trend-tol": true}, trend: "dir", trendTol: -1}), "-trend-tol"},
		{"trend-tol without trend", ok(args{set: map[string]bool{"trend-tol": true}, trendTol: 0.1}), "pass -trend"},
		{"profiles", ok(args{set: map[string]bool{"cpuprofile": true, "memprofile": true}, cpuProf: filepath.Join(t.TempDir(), "cpu.prof"), memProf: filepath.Join(t.TempDir(), "mem.prof")}), ""},
		{"cpuprofile unwritable", ok(args{set: map[string]bool{"cpuprofile": true}, cpuProf: filepath.Join(t.TempDir(), "missing", "cpu.prof")}), "-cpuprofile"},
		{"memprofile unwritable", ok(args{set: map[string]bool{"memprofile": true}, memProf: filepath.Join(t.TempDir(), "missing", "mem.prof")}), "-memprofile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.a.set, c.a.args, c.a.artifact, c.a.spec,
				c.a.n, c.a.train, c.a.workers, c.a.reps, c.a.diff,
				c.a.sig, c.a.tol, c.a.rtol, c.a.trend, c.a.trendTol, c.a.cpuProf, c.a.memProf)
			if c.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestMain lets a test re-exec this binary as experiments itself: with
// EXPERIMENTS_TEST_MAIN=1 the process runs main on its arguments
// instead of the tests, so a test drives the real flag parsing and exit
// path.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsUndefined: experiments has no multi-process executor,
// so -shards, -hosts, -serve, -doctor and -wait are undefined flags.
// Each must fail flag parsing (exit 2) before anything runs.
func TestRemovedFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "2"},
		{"-hosts", "a:1"},
		{"-serve", ":0"},
		{"-doctor"},
		{"-wait", "1s"},
	} {
		out, code := runMain(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2\n%s", args, code, out)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Fatalf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
}

// TestErrorPrefixOnce: a failure names the command exactly once on
// stderr, whether the experiments package's error reaches main bare
// (-scenario) or behind the spec path (-spec), and the spec error keeps
// its path.
func TestErrorPrefixOnce(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"scenario":"warp","matrices":[{"kind":"modes"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", bad}, "experiments: " + bad + `: unknown scenario "warp"`},
		{[]string{"-artifact", "table2", "-scenario", "warp"}, `experiments: unknown scenario "warp"`},
	} {
		cmd := exec.Command(exe, tc.args...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1\n%s", tc.args, err, stderr.String())
		}
		got := stderr.String()
		if !strings.HasPrefix(got, tc.want) || strings.Count(got, "experiments:") != 1 {
			t.Fatalf("%v: stderr = %q, want one line starting %q with the prefix once", tc.args, got, tc.want)
		}
	}
}

// TestDiffSeesTracePath: two one-row manifests that differ only in the
// trace they replayed differ under -diff and under -diff -sig alike;
// both exit 1 naming trace_path.
func TestDiffSeesTracePath(t *testing.T) {
	dir := t.TempDir()
	write := func(name, trace string) string {
		m := &records.RunManifest{Label: name, Runs: []records.RunSummary{{
			ID: "mode/speed", Kind: "modes", Mode: "speed", FleetSeed: 2025, Jobs: 8, TracePath: trace, TsimS: 10,
		}}}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a", "a.csv"), write("b", "b.csv")
	for _, args := range [][]string{{"-diff", a, b}, {"-diff", "-sig", a, b}} {
		out, code := runMain(t, args...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1\n%s", args[:len(args)-2], code, out)
		}
		if !strings.Contains(string(out), "config trace_path") || !strings.Contains(string(out), "a.csv -> b.csv") {
			t.Fatalf("%v: output does not name the trace_path change:\n%s", args[:len(args)-2], out)
		}
	}
}

// runMain re-execs the test binary as experiments on args and returns
// its combined output and exit status.
func runMain(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out, 0
	case errors.As(err, &exit):
		return out, exit.ExitCode()
	}
	t.Fatalf("%v: %v", args, err)
	return nil, 0
}

// TestReplicateArtifactAggregates: -artifact replicate is a replicated
// run like any other, so -out writes its aggregated manifest — one row
// per mode, each folding the -replications seeds — and -diff -sig
// counts the four base tasks, not one per replica.
func TestReplicateArtifactAggregates(t *testing.T) {
	dir := t.TempDir()
	if out, code := runMain(t, "-artifact", "replicate", "-replications", "3", "-n", "30", "-train", "2048",
		"-progress=false", "-out", dir); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	f, err := os.Open(filepath.Join(dir, "aggregated.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	agg, err := records.ReadAggregatedJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != len(experiments.Modes) {
		t.Fatalf("%d aggregated rows, want %d", len(agg.Rows), len(experiments.Modes))
	}
	for i, r := range agg.Rows {
		if r.ID != "mode/"+experiments.Modes[i] || r.N != 3 || !reflect.DeepEqual(r.Seeds, []int64{1, 2, 3}) {
			t.Fatalf("aggregated row %d = %s n=%d seeds=%v, want mode/%s over seeds 1..3", i, r.ID, r.N, r.Seeds, experiments.Modes[i])
		}
	}
	out, code := runMain(t, "-diff", "-sig", filepath.Join(dir, "manifest.json"), filepath.Join(dir, "aggregated.json"))
	if code != 0 || !strings.Contains(string(out), "all 4 base task(s)") {
		t.Fatalf("-diff -sig: exit %d, want 0 over 4 base tasks:\n%s", code, out)
	}
}

// TestDiffRefusesNonManifest: exact -diff compares run manifests only.
// An aggregated manifest or any other JSON document has no "runs"
// array; reading it as a manifest of zero tasks would make any two such
// files "agree", so each is refused naming its path.
func TestDiffRefusesNonManifest(t *testing.T) {
	dir := t.TempDir()
	agg, empty := filepath.Join(dir, "aggregated.json"), filepath.Join(dir, "empty.json")
	if err := os.WriteFile(agg, []byte(`{"label":"x","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{agg, empty} {
		out, code := runMain(t, "-diff", path, path)
		if code != 1 || !strings.Contains(string(out), path+`: not a run manifest: no "runs" array`) {
			t.Fatalf("-diff %s %s: exit %d, want 1 naming the path:\n%s", path, path, code, out)
		}
	}
}

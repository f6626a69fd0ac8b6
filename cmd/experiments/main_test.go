package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
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
	base := flagSpec(t, "-artifact", "replicate", "-n", "30", "-train", "2048", "-replications", "3")
	for _, artifact := range []string{"table2", "replicate", "ablations"} {
		spec, err := compileSpec(artifact, base)
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
	if _, err := compileSpec("fig5", base); err == nil {
		t.Fatal("figure artifact compiled to a spec")
	}
}

// TestCompileSpecShapes pins the task matrices each artifact lowers
// to: table2 is the four-mode fan-out, replicate is the same matrix
// fanned out over seeds 1..reps, ablations is the paper's three sweeps.
func TestCompileSpecShapes(t *testing.T) {
	table2, _ := compileSpec("table2", flagSpec(t, "-scenario", "stress-arrivals", "-n", "50", "-seed", "9",
		"-fleet-seed", "7", "-train", "100"))
	if table2.Scenario != "stress-arrivals" || table2.Jobs != 50 || *table2.Seed != 9 ||
		*table2.FleetSeed != 7 || table2.TrainSteps != 100 || table2.Replications != 0 {
		t.Fatalf("flag overrides lost: %+v", table2)
	}
	if len(table2.Matrices) != 1 || table2.Matrices[0].Kind != "modes" {
		t.Fatalf("table2 matrices = %+v", table2.Matrices)
	}
	base := flagSpec(t, "-artifact", "replicate", "-n", "30", "-train", "2048", "-replications", "3")
	rep, _ := compileSpec("replicate", base)
	if len(rep.Matrices) != 1 || rep.Matrices[0].Kind != "modes" || rep.Replications != 3 {
		t.Fatalf("replicate spec = %+v, want one modes matrix with replications 3", rep)
	}
	abl, _ := compileSpec("ablations", base)
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
	base := flagSpec(t, "-n", "20", "-train", "2048")
	dir := t.TempDir()
	if err := runFigures("all", base, experiments.ExecOptions{Workers: 2}, "", dir); err != nil {
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
		spec, err := compileSpec(artifact, base)
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

// flagSpec is the workload base the flag path builds from argv.
func flagSpec(t *testing.T, argv ...string) experiments.Spec {
	t.Helper()
	o, err := parseArgs(argv, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return o.spec
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
	diff := func(argv ...string) []string { return append(append([]string{"-diff"}, argv...), "a.json", "b.json") }
	cases := []struct {
		name string
		argv []string
		want string // "" means accepted
	}{
		{"defaults", nil, ""},
		{"diff two paths", diff(), ""},
		{"diff one path", []string{"-diff", "a.json"}, "exactly two"},
		{"diff with flags", diff("-n", "5"), "no other flags"},
		{"stray args", []string{"table2"}, "unexpected arguments"},
		{"workers zero", []string{"-workers", "0"}, "-workers must be >= 1"},
		{"workers set valid", []string{"-workers", "4"}, ""},
		{"replications zero", []string{"-replications", "0"}, "-replications"},
		{"replications above max", []string{"-artifact", "replicate", "-replications", strconv.Itoa(experiments.MaxReplications + 1)}, "-replications"},
		{"n zero", []string{"-n", "0"}, "-n"},
		{"n with trace-replay", []string{"-scenario", "trace-replay", "-n", "7"}, "a jobs override conflicts with the trace workload specs/trace-smoke.csv"},
		{"trace-replay without n", []string{"-scenario", "trace-replay"}, ""},
		{"unknown scenario", []string{"-scenario", "warp"}, `unknown scenario "warp"`},
		{"train zero", []string{"-train", "0"}, "-train"},
		{"spec with artifact", []string{"-spec", "s.json", "-artifact", "table2"}, "-artifact conflicts"},
		{"spec with seed", []string{"-spec", "s.json", "-seed", "3"}, "-seed conflicts"},
		{"replications with table2", []string{"-artifact", "table2", "-replications", "3"}, "-replications"},
		{"replications with fig5", []string{"-artifact", "fig5", "-replications", "3"}, "-replications"},
		{"replications with replicate", []string{"-artifact", "replicate", "-replications", "3"}, ""},
		{"seed with replicate", []string{"-artifact", "replicate", "-seed", "3"}, "-seed"},
		{"seed with table2", []string{"-artifact", "table2", "-seed", "3"}, ""},
		{"outdir with ablations", []string{"-artifact", "ablations", "-outdir", "d"}, "-outdir"},
		{"outdir with replicate", []string{"-artifact", "replicate", "-outdir", "d"}, "-outdir"},
		{"outdir with table2", []string{"-artifact", "table2", "-outdir", "d"}, ""},
		{"out with fig5", []string{"-artifact", "fig5", "-out", "d"}, "-out: -artifact fig5"},
		{"out with fig6", []string{"-artifact", "fig6", "-out", "d"}, ""},
		{"unknown artifact", []string{"-artifact", "bogus", "-out", "d"}, `unknown artifact "bogus"`},
		{"diff sig", diff("-sig"), ""},
		{"diff tol", diff("-tol", "1e-9"), ""},
		{"diff negative tol", diff("-tol", "-1"), ">= 0"},
		{"diff sig with tol", diff("-sig", "-tol", "1e-9"), "drop -tol"},
		{"diff sig with other flags", diff("-sig", "-n", "5"), "no other flags"},
		{"sig without diff", []string{"-sig"}, "pass -diff"},
		{"tol without diff", []string{"-tol", "1e-9"}, "pass -diff"},
		{"trend alone", []string{"-trend", "dir"}, ""},
		{"trend empty value", []string{"-trend", ""}, "unset shell variable"},
		{"trend with tol", []string{"-trend", "dir", "-trend-tol", "0.1"}, ""},
		{"trend with n", []string{"-trend", "dir", "-n", "5"}, "conflicts"},
		{"trend with args", []string{"-trend", "dir", "x"}, "no positional"},
		{"trend bad tol", []string{"-trend", "dir", "-trend-tol", "-1"}, "-trend-tol"},
		{"trend-tol without trend", []string{"-trend-tol", "0.1"}, "pass -trend"},
		{"profiles", []string{"-cpuprofile", filepath.Join(t.TempDir(), "cpu.prof"), "-memprofile", filepath.Join(t.TempDir(), "mem.prof")}, ""},
		{"cpuprofile unwritable", []string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.prof")}, "-cpuprofile"},
		{"memprofile unwritable", []string{"-memprofile", filepath.Join(t.TempDir(), "missing", "mem.prof")}, "-memprofile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseArgs(c.argv, io.Discard)
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

// TestValidateFlagsNamesFirstConflict: a command line with several
// conflicting flags is refused naming the first of them in name order,
// the same one on every run.
func TestValidateFlagsNamesFirstConflict(t *testing.T) {
	argv := []string{"-trend", "d", "-n", "5", "-seed", "3", "-train", "4"}
	const want = "-trend reads saved artifacts only; -n conflicts with it"
	for range 20 {
		if _, err := parseArgs(argv, io.Discard); err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	}
}

// TestFlagListsNameRealFlags: every name in a flag list is a defined
// flag; a typo would silently disable the check that list drives.
func TestFlagListsNameRealFlags(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range slices.Concat(specConflicts, diffFlags, trendFlags) {
		if o.fs.Lookup(f) == nil {
			t.Errorf("flag list names -%s, which is not defined", f)
		}
	}
}

// TestUsageGolden: the usage lists every flag with the name, default
// and help text the command has always had (testdata/usage.golden is
// the -h output from before the flags moved onto a private FlagSet).
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	o.fs.SetOutput(&got)
	o.fs.PrintDefaults()
	if got.String() != string(want) {
		t.Fatalf("usage drifted from testdata/usage.golden:\n%s", got.String())
	}
}

// TestFig5OutRefused: -artifact fig5 writes no manifest, so -out with
// it is refused before anything runs: exit 1 and no directory made.
func TestFig5OutRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	out, code := runMain(t, "-artifact", "fig5", "-out", dir)
	if code != 1 || !strings.Contains(string(out), "-out: -artifact fig5") {
		t.Fatalf("exit %d, want 1 naming -out:\n%s", code, out)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused run touched %s: %v", dir, err)
	}
}

// TestUnknownArtifactRefused: an unknown -artifact is refused while
// the flags are validated, so the refused run makes no -out or -outdir
// directory.
func TestUnknownArtifactRefused(t *testing.T) {
	out, outdir := filepath.Join(t.TempDir(), "runs"), filepath.Join(t.TempDir(), "arts")
	msg, code := runMain(t, "-artifact", "bogus", "-out", out, "-outdir", outdir)
	if code != 1 || !strings.Contains(string(msg), `unknown artifact "bogus"`) {
		t.Fatalf("exit %d, want 1 naming the artifact:\n%s", code, msg)
	}
	for _, dir := range []string{out, outdir} {
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused run touched %s: %v", dir, err)
		}
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

package records

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden fixtures from goldenManifest():
//
//	go test ./internal/records -run Golden -update
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenManifest is the fixture source: a run mixing heuristic rows
// (pointer fields absent), an rlbase row (pointer fields present),
// explicit zero values behind pointers (the omitempty trap the pointers
// exist to avoid) and a zero-valued sweep param.
func goldenManifest() *RunManifest {
	steps, zeroSteps := 100000, 0
	seed, zeroSeed := int64(7), int64(0)
	det, sampled := true, false
	return &RunManifest{
		Label:   "table2",
		Workers: 3,
		Runs: []RunSummary{
			{
				ID: "mode/speed", Kind: "mode", Mode: "speed",
				WorkloadSeed: 1, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05,
				Jobs: 1000, TsimS: 12345.5, FidelityMean: 0.71, FidelityStd: 0.02,
				TcommS: 321.25, MeanDevicesPerJob: 2.5, MeanWaitS: 60.5, WallMS: 1500,
			},
			{
				ID: "mode/rlbase", Kind: "mode", Mode: "rlbase",
				WorkloadSeed: 1, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05,
				Jobs: 1000, TrainSteps: &steps, RLSeed: &seed, RLDeterministic: &det,
				TsimS: 13000, FidelityMean: 0.67, FidelityStd: 0.04,
				TcommS: 900, MeanDevicesPerJob: 3.1, MeanWaitS: 70, WallMS: 1600,
			},
			{
				ID: "rl-deploy/sampled", Kind: "rl-deploy", Mode: "rlbase",
				WorkloadSeed: 1, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05,
				Jobs: 1000, TrainSteps: &zeroSteps, RLSeed: &zeroSeed, RLDeterministic: &sampled,
				TsimS: 13100, FidelityMean: 0.66, FidelityStd: 0.05,
				TcommS: 910, MeanDevicesPerJob: 3.0, MeanWaitS: 71, WallMS: 1700,
			},
			{
				ID: "lambda-sweep/fair/0", Kind: "lambda-sweep", Mode: "fair", Param: 0,
				WorkloadSeed: 1, FleetSeed: 2025, Phi: 0.95, Lambda: 0,
				Jobs: 1000, TsimS: 11800, FidelityMean: 0.69, FidelityStd: 0.03,
				TcommS: 0, MeanDevicesPerJob: 2.2, MeanWaitS: 55, WallMS: 1300,
			},
		},
	}
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(t, name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden fixture (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenManifestJSON pins WriteJSON's byte-level output and proves
// ReadManifestJSON restores the exact same bytes — -diff, -diff -sig
// and -trend read saved manifests, so the encoding must not drift
// silently.
func TestGoldenManifestJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenManifest().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest_golden.json", buf.Bytes())

	f, err := os.Open(goldenPath(t, "manifest_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ReadManifestJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest_golden.json", again.Bytes())
}

// TestGoldenManifestCSV pins WriteCSV, including the blank-when-unset
// rendering of the pointer fields.
func TestGoldenManifestCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenManifest().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest_golden.csv", buf.Bytes())
}

// TestFmtPtrHelpers covers the optional-field CSV formatters directly:
// blank for nil, exact decimal rendering otherwise.
func TestFmtPtrHelpers(t *testing.T) {
	i, i64, b := 0, int64(-9223372036854775808), false
	cases := []struct{ got, want string }{
		{fmtIntPtr(nil), ""},
		{fmtIntPtr(&i), "0"},
		{fmtInt64Ptr(nil), ""},
		{fmtInt64Ptr(&i64), "-9223372036854775808"},
		{fmtBoolPtr(nil), ""},
		{fmtBoolPtr(&b), "false"},
	}
	i, i64, b = 100000, 7, true
	cases = append(cases,
		struct{ got, want string }{fmtIntPtr(&i), "100000"},
		struct{ got, want string }{fmtInt64Ptr(&i64), "7"},
		struct{ got, want string }{fmtBoolPtr(&b), "true"},
	)
	for k, c := range cases {
		if c.got != c.want {
			t.Fatalf("case %d: got %q, want %q", k, c.got, c.want)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/records"
)

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchArtifact mirrors the JSON the CI bench-smoke job packages.
func benchArtifact(date, nsOp string) string {
	return `{"commit":"abc","ref":"refs/heads/main","date":"` + date + `","go":"go1.24",
		"benchmarks":["BenchmarkParallelRunAll-4 1 ` + nsOp + ` ns/op"]}`
}

// TestTrendBenchTimeline: bench artifacts order by embedded date (not
// filename), a flat series passes, and a ns/op jump beyond the
// relative threshold is flagged with a non-zero error.
func TestTrendBenchTimeline(t *testing.T) {
	dir := t.TempDir()
	// Filenames deliberately sort against the dates.
	writeFile(t, dir, "z_old.json", benchArtifact("2026-07-01T00:00:00Z", "1000000"))
	writeFile(t, dir, "a_new.json", benchArtifact("2026-07-02T00:00:00Z", "1010000"))
	var out bytes.Buffer
	if err := runTrend(&out, dir, 0.05); err != nil {
		t.Fatalf("flat trend flagged: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "ordered by embedded date") {
		t.Fatalf("report = %q", report)
	}
	if !strings.Contains(report, "bench/BenchmarkParallelRunAll/ns_per_op") {
		t.Fatalf("bench metric missing: %q", report)
	}
	// Date order, not filename order: z_old must be listed first.
	if strings.Index(report, "z_old.json") > strings.Index(report, "a_new.json") {
		t.Fatalf("timeline not date-ordered:\n%s", report)
	}

	writeFile(t, dir, "m_newest.json", benchArtifact("2026-07-03T00:00:00Z", "2000000"))
	out.Reset()
	err := runTrend(&out, dir, 0.05)
	if err == nil || !strings.Contains(err.Error(), "shifted significantly") {
		t.Fatalf("2x regression not flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "SHIFT") {
		t.Fatalf("report lacks SHIFT flag:\n%s", out.String())
	}
}

// aggregatedJSON renders a replicated fixture (shifted by delta on
// tsim_s) as an aggregated-manifest file.
func aggregatedJSON(t *testing.T, delta float64) string {
	t.Helper()
	m := &records.RunManifest{Label: "replicated"}
	for _, seed := range []int64{1, 2, 3} {
		m.Runs = append(m.Runs, records.RunSummary{
			ID: records.ReplicaID("mode/speed", seed), Kind: "mode", Mode: "speed",
			WorkloadSeed: seed, FleetSeed: 2025, Phi: 0.95, Lambda: 0.05, Jobs: 30,
			TsimS: 100 + float64(seed) + delta, FidelityMean: 0.7,
		})
	}
	agg, err := records.AggregateManifests(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTrendAggregatedWelch: aggregated manifests order by filename (no
// embedded date), small moves within the replicas' dispersion pass,
// and a shift far beyond it is flagged through Welch's t even when it
// is below the relative threshold that governs dispersion-free
// metrics.
func TestTrendAggregatedWelch(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "0001.json", aggregatedJSON(t, 0))
	writeFile(t, dir, "0002.json", aggregatedJSON(t, 0))
	var out bytes.Buffer
	if err := runTrend(&out, dir, 0.05); err != nil {
		t.Fatalf("identical aggregates flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ordered by filename") {
		t.Fatalf("report = %q", out.String())
	}

	// +4 on a mean of ~102 is under the 5% relative threshold but ~4
	// sample stds — Welch must catch what the threshold would miss.
	writeFile(t, dir, "0003.json", aggregatedJSON(t, 4))
	out.Reset()
	err := runTrend(&out, dir, 0.05)
	if err == nil || !strings.Contains(err.Error(), "mode/speed/tsim_s") {
		t.Fatalf("sub-threshold Welch shift not flagged: %v\n%s", err, out.String())
	}
}

// TestTrendEdgeCases: single artifacts are baselines (nothing to
// flag), empty directories and unrecognized files error.
func TestTrendEdgeCases(t *testing.T) {
	dir := t.TempDir()
	if err := runTrend(&bytes.Buffer{}, dir, 0.05); err == nil {
		t.Fatal("empty dir accepted")
	}
	writeFile(t, dir, "one.json", benchArtifact("2026-07-01T00:00:00Z", "1000000"))
	var out bytes.Buffer
	if err := runTrend(&out, dir, 0.05); err != nil {
		t.Fatalf("single baseline flagged: %v", err)
	}
	if !strings.Contains(out.String(), "baseline") {
		t.Fatalf("report = %q", out.String())
	}
	// A date-less artifact degrades ordering to filename; with other
	// files still carrying dates, the report must warn that the
	// fallback happened (hash-named files won't sort by commit).
	writeFile(t, dir, "undated.json", aggregatedJSON(t, 0))
	out.Reset()
	if err := runTrend(&out, dir, 0.05); err != nil {
		t.Fatalf("mixed-date dir flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ordered by filename") || !strings.Contains(out.String(), "WARNING: 1 of 2") {
		t.Fatalf("no fallback warning:\n%s", out.String())
	}
	writeFile(t, dir, "junk.json", `{"neither":"fish nor fowl"}`)
	if err := runTrend(&bytes.Buffer{}, dir, 0.05); err == nil || !strings.Contains(err.Error(), "not a bench artifact") {
		t.Fatalf("junk accepted: %v", err)
	}
}

// TestResolveBenchKeys: the GOMAXPROCS suffix strips so one benchmark
// keys identically across runner shapes — but a name that collides
// under stripping in ANY artifact (a -cpu=1,4 run, sub-benchmarks
// named "…-10"/"…-20") keeps its full form in EVERY artifact, so two
// different series are never spliced into one timeline.
func TestResolveBenchKeys(t *testing.T) {
	mustParse := func(lines ...string) *trendEntry {
		raw, err := parseBenchLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		return &trendEntry{metrics: map[string]trendPoint{}, bench: raw}
	}
	// Historical artifact from an 8-proc runner; newest from a
	// -cpu=1,8 run whose two variants collide under stripping.
	old := mustParse("BenchmarkFoo-8 10 800 ns/op", "BenchmarkBaz-8 7 700 ns/op 42 B/op")
	newest := mustParse(
		"BenchmarkFoo 10 6400 ns/op",
		"BenchmarkFoo-8 10 810 ns/op",
		"BenchmarkBar/size-10 5 50 ns/op",
		"BenchmarkBar/size-20 5 60 ns/op",
		"BenchmarkBaz-4 7 690 ns/op 40 B/op",
	)
	notes, err := resolveBenchKeys([]*trendEntry{old, newest})
	if err != nil {
		t.Fatal(err)
	}
	// The cross-artifact Baz-8/Baz-4 merge is ambiguous by nature
	// (runner-shape change vs renamed sub-benchmark) and must be
	// surfaced as a note rather than decided silently.
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkBaz merges BenchmarkBaz-4, BenchmarkBaz-8") {
		t.Fatalf("notes = %v", notes)
	}
	// The collision bans stripping of "BenchmarkFoo" everywhere: the
	// historical 8-proc point keys as BenchmarkFoo-8 and continues
	// into the newest 8-proc point — NOT into the 1-proc one.
	if old.metrics["bench/BenchmarkFoo-8/ns_per_op"].mean != 800 {
		t.Fatalf("old keys = %+v", old.metrics)
	}
	if newest.metrics["bench/BenchmarkFoo-8/ns_per_op"].mean != 810 ||
		newest.metrics["bench/BenchmarkFoo/ns_per_op"].mean != 6400 {
		t.Fatalf("newest keys = %+v", newest.metrics)
	}
	// Sub-benchmark mutual collision on ".../size": full names kept.
	if newest.metrics["bench/BenchmarkBar/size-10/ns_per_op"].mean != 50 ||
		newest.metrics["bench/BenchmarkBar/size-20/ns_per_op"].mean != 60 {
		t.Fatalf("sub-bench keys = %+v", newest.metrics)
	}
	// No collision anywhere: runner-shape changes still line up on one
	// stripped key, every value/unit pair carried.
	if old.metrics["bench/BenchmarkBaz/ns_per_op"].mean != 700 ||
		newest.metrics["bench/BenchmarkBaz/ns_per_op"].mean != 690 ||
		newest.metrics["bench/BenchmarkBaz/B_per_op"].mean != 40 {
		t.Fatalf("stripped keys = %+v vs %+v", old.metrics, newest.metrics)
	}
	if _, err := parseBenchLines([]string{"BenchmarkDup 1 1 ns/op", "BenchmarkDup 1 2 ns/op"}); err == nil {
		t.Fatal("duplicate benchmark line accepted")
	}
}

// TestTrendStaleMetricNotGated: a metric whose last point predates the
// newest artifact (renamed or removed benchmark) is reported "stale"
// but never fails the gate — the newest commit does not report it, so
// a historical shift in it is not the newest commit's regression.
func TestTrendStaleMetricNotGated(t *testing.T) {
	dir := t.TempDir()
	old := `{"commit":"a","date":"2026-07-01T00:00:00Z","benchmarks":["BenchmarkOld-4 1 1000000 ns/op"]}`
	mid := `{"commit":"b","date":"2026-07-02T00:00:00Z","benchmarks":["BenchmarkOld-4 1 2000000 ns/op"]}`
	now := `{"commit":"c","date":"2026-07-03T00:00:00Z","benchmarks":["BenchmarkNew-4 1 5000000 ns/op"]}`
	writeFile(t, dir, "0001.json", old)
	writeFile(t, dir, "0002.json", mid) // 2x shift, but not in the newest artifact
	writeFile(t, dir, "0003.json", now)
	var out bytes.Buffer
	if err := runTrend(&out, dir, 0.05); err != nil {
		t.Fatalf("stale metric's historical shift failed the gate: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "stale") || strings.Contains(report, "SHIFT") {
		t.Fatalf("report = %q", report)
	}
}

// TestLoadAggregatedAny: -diff -sig accepts both manifest forms and
// tells them apart by content, not filename.
func TestLoadAggregatedAny(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "agg.json", aggregatedJSON(t, 0))
	m := &records.RunManifest{Label: "plain"}
	for _, seed := range []int64{1, 2} {
		m.Runs = append(m.Runs, records.RunSummary{
			ID: records.ReplicaID("mode/fair", seed), Kind: "mode", Mode: "fair",
			WorkloadSeed: seed, TsimS: 50,
		})
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "run.json", buf.String())

	agg, err := loadAggregatedAny(filepath.Join(dir, "agg.json"))
	if err != nil || len(agg.Rows) != 1 || agg.Rows[0].N != 3 {
		t.Fatalf("aggregated load = %v, %+v", err, agg)
	}
	folded, err := loadAggregatedAny(filepath.Join(dir, "run.json"))
	if err != nil || len(folded.Rows) != 1 || folded.Rows[0].N != 2 || folded.Rows[0].ID != "mode/fair" {
		t.Fatalf("run-manifest fold = %v, %+v", err, folded)
	}
	if _, err := loadAggregatedAny(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A bench artifact (or any foreign JSON object) must be rejected,
	// not decoded as a zero-task manifest that diffs everything away.
	writeFile(t, dir, "bench.json", benchArtifact("2026-07-01T00:00:00Z", "1000000"))
	if _, err := loadAggregatedAny(filepath.Join(dir, "bench.json")); err == nil ||
		!strings.Contains(err.Error(), "neither an aggregated manifest nor a run manifest") {
		t.Fatalf("bench artifact accepted by -diff -sig loader: %v", err)
	}
}

// TestTrendGatesCostRegressionsOnly: ns/op, B/op and allocs/op are
// lower-is-better, so only a rise fails the gate — a 2x speed-up or a
// 2x allocation drop passes — while every other metric (a bench's
// custom muF, simulated results) stays gated in both directions.
func TestTrendGatesCostRegressionsOnly(t *testing.T) {
	line := func(ns, bytes, allocs, muF string) string {
		return "BenchmarkTable2-4 1 " + ns + " ns/op " + muF + " muF " + bytes + " B/op " + allocs + " allocs/op"
	}
	base := line("1000000", "4096", "64", "0.40")
	cases := []struct {
		name   string
		newest string
		flag   string // metric expected in the error, "" = gate passes
	}{
		{"2x speed-up", line("500000", "4096", "64", "0.40"), ""},
		{"2x alloc drop", line("1000000", "2048", "32", "0.40"), ""},
		{"2x slowdown", line("2000000", "4096", "64", "0.40"), "bench/BenchmarkTable2/ns_per_op"},
		{"2x alloc rise", line("1000000", "4096", "128", "0.40"), "bench/BenchmarkTable2/allocs_per_op"},
		{"muF up", line("1000000", "4096", "64", "0.90"), "bench/BenchmarkTable2/muF"},
		{"muF down", line("1000000", "4096", "64", "0.10"), "bench/BenchmarkTable2/muF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, dir, "0001.json", `{"date":"2026-07-01T00:00:00Z","benchmarks":["`+base+`"]}`)
			writeFile(t, dir, "0002.json", `{"date":"2026-07-02T00:00:00Z","benchmarks":["`+c.newest+`"]}`)
			var out bytes.Buffer
			err := runTrend(&out, dir, 0.5)
			if c.flag == "" {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("want %s flagged, got %v\n%s", c.flag, err, out.String())
			}
		})
	}

	// Zero-baseline rule: any rise off zero allocs still fails, while
	// the aggregated (Welch) path keeps flagging a moved tsim_s either
	// way round.
	dir := t.TempDir()
	writeFile(t, dir, "0001.json", `{"date":"2026-07-01T00:00:00Z","benchmarks":["BenchmarkBroker-4 1 100 ns/op 0 allocs/op"]}`)
	writeFile(t, dir, "0002.json", `{"date":"2026-07-02T00:00:00Z","benchmarks":["BenchmarkBroker-4 1 100 ns/op 1 allocs/op"]}`)
	if err := runTrend(&bytes.Buffer{}, dir, 0.5); err == nil || !strings.Contains(err.Error(), "allocs_per_op") {
		t.Fatalf("rise off a zero allocs baseline not flagged: %v", err)
	}
	dir = t.TempDir()
	writeFile(t, dir, "0001.json", aggregatedJSON(t, 0))
	writeFile(t, dir, "0002.json", aggregatedJSON(t, -4))
	if err := runTrend(&bytes.Buffer{}, dir, 0.5); err == nil || !strings.Contains(err.Error(), "mode/speed/tsim_s") {
		t.Fatalf("tsim_s drop not flagged: %v", err)
	}
}

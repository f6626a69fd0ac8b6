package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// trendPoint is one commit's observation of one metric. Aggregated
// manifests carry a dispersion estimate (N, StdErr) so shifts can be
// tested with Welch's t; bench artifacts and plain run manifests carry
// a bare value (N=1) and fall back to the relative threshold.
type trendPoint struct {
	mean   float64
	stderr float64
	n      int
}

// trendEntry is one ingested artifact file: every metric it reports,
// plus the ordering keys (embedded date when present, filename
// otherwise). Bench artifacts park their raw lines in bench until
// every file is loaded — benchmark-name normalization is decided over
// the whole directory (resolveBenchKeys), not per file, so one
// artifact's naming cannot splice two different series together.
type trendEntry struct {
	name    string // base filename
	date    string // RFC3339 date from bench artifacts, "" otherwise
	metrics map[string]trendPoint
	bench   map[string][]string // raw benchmark name -> value/unit fields
}

// parseTrendFile ingests one artifact into a trendEntry: a bench
// artifact by its "benchmarks" lines, anything else through the same
// sniff-and-fold path -diff -sig uses (aggregatedFromJSON), so the two
// consumers cannot drift on what counts as a manifest.
func parseTrendFile(path string) (*trendEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Date       string   `json:"date"`
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	e := &trendEntry{name: filepath.Base(path), date: f.Date, metrics: map[string]trendPoint{}}
	if f.Benchmarks != nil {
		bench, err := parseBenchLines(f.Benchmarks)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		e.bench = bench
		return e, nil
	}
	agg, err := aggregatedFromJSON(data)
	if errors.Is(err, errUnknownArtifact) {
		return nil, fmt.Errorf("%s: not a bench artifact, aggregated manifest, or run manifest", path)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range agg.Rows {
		for metric, a := range r.Metrics {
			e.metrics[r.ID+"/"+metric] = trendPoint{mean: a.Mean, stderr: a.StdErr, n: r.N}
		}
	}
	return e, nil
}

// parseBenchLines validates `go test -bench` output lines
// ("BenchmarkName-8 10 123456 ns/op 42 B/op ...") into a raw
// name -> value/unit-fields map. Key normalization happens later, in
// resolveBenchKeys, once every artifact is loaded.
func parseBenchLines(lines []string) (map[string][]string, error) {
	raw := make(map[string][]string, len(lines))
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("malformed benchmark line %q", line)
		}
		name := fields[0]
		if _, dup := raw[name]; dup {
			return nil, fmt.Errorf("benchmark %q reported twice", name)
		}
		raw[name] = fields[2:]
	}
	return raw, nil
}

// stripBenchSuffix removes a trailing "-<number>" — the GOMAXPROCS
// suffix `go test -bench` appends when procs > 1 — so the same
// benchmark keys identically across runner shapes.
func stripBenchSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// resolveBenchKeys turns every entry's raw benchmark lines into metric
// points under directory-wide stable keys. The GOMAXPROCS suffix is
// stripped so one benchmark keys identically across runner shapes —
// unless ANY artifact reports two benchmarks that collide under the
// stripped name (a `-cpu=1,4` run's "BenchmarkFoo"/"BenchmarkFoo-4",
// or sub-benchmarks named "…-10"/"…-20"): such names keep their full
// form in EVERY artifact, keeping the series that are provably
// distinct apart. Purely cross-artifact the suffix stays ambiguous —
// "Foo-8" in one file and "Foo-4" in another is usually the same
// benchmark on two runner shapes (must merge), but could be a renamed
// "…-<n>" sub-benchmark (must not) — so every such merge is returned
// as a note for the report rather than decided silently.
func resolveBenchKeys(entries []*trendEntry) (notes []string, err error) {
	collides := map[string]bool{}
	for _, e := range entries {
		perArtifact := map[string]int{}
		for name := range e.bench {
			perArtifact[stripBenchSuffix(name)]++
		}
		for s, n := range perArtifact {
			if n > 1 {
				collides[s] = true
			}
		}
	}
	merged := map[string]map[string]bool{} // stripped key -> distinct raw names
	for _, e := range entries {
		for name, fields := range e.bench {
			key := name
			if s := stripBenchSuffix(name); !collides[s] {
				key = s
				if merged[s] == nil {
					merged[s] = map[string]bool{}
				}
				merged[s][name] = true
			}
			for i := 0; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: benchmark %q: value %q: %w", e.name, name, fields[i], err)
				}
				unit := strings.ReplaceAll(fields[i+1], "/", "_per_")
				e.metrics["bench/"+key+"/"+unit] = trendPoint{mean: v, n: 1}
			}
		}
	}
	for s, raws := range merged {
		if len(raws) > 1 {
			names := make([]string, 0, len(raws))
			for name := range raws {
				names = append(names, name)
			}
			sort.Strings(names)
			notes = append(notes, fmt.Sprintf("note: %s merges %s across artifacts (GOMAXPROCS suffixes assumed, not renamed \"-<n>\" sub-benchmarks)", s, strings.Join(names, ", ")))
		}
	}
	sort.Strings(notes)
	return notes, nil
}

// runTrend ingests every *.json artifact under dir, orders them into a
// per-commit timeline, prints each metric's trajectory, and returns an
// error (non-zero exit) when the newest point of any metric shifted
// significantly from its predecessor — Welch's t where both points
// store a dispersion estimate, |Δ|/|prev| > relTol otherwise. For
// ns/op, B/op and allocs/op only a rise counts (see trendShifted).
func runTrend(w io.Writer, dir string, relTol float64) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("trend: no *.json artifacts under %s", dir)
	}
	entries := make([]*trendEntry, 0, len(paths))
	for _, p := range paths {
		e, err := parseTrendFile(p)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	notes, err := resolveBenchKeys(entries)
	if err != nil {
		return err
	}
	// Order the timeline: by embedded date when every artifact has one
	// (bench artifacts stamp their CI run), by filename otherwise — so
	// mixed directories need date-free files named in commit order.
	dated := 0
	for _, e := range entries {
		if e.date != "" {
			dated++
		}
	}
	byDate := dated == len(entries)
	sort.SliceStable(entries, func(i, j int) bool {
		if byDate && entries[i].date != entries[j].date {
			return entries[i].date < entries[j].date
		}
		return entries[i].name < entries[j].name
	})

	order := "filename"
	if byDate {
		order = "embedded date"
	}
	// Buffer the report: bufio latches the first write error and the
	// checked Flush below surfaces it.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "== Trend over %d artifact(s) in %s (ordered by %s) ==\n", len(entries), dir, order)
	for _, note := range notes {
		fmt.Fprintln(bw, note)
	}
	if !byDate && dated > 0 {
		// Some files carry dates the ordering cannot use — for
		// hash-named BENCH_<sha>.json files, filename order is NOT
		// commit order, so say loudly that the fallback happened.
		fmt.Fprintf(bw, "WARNING: %d of %d artifact(s) lack an embedded date; ordering fell back to filename — name files in commit order or the newest-point gate compares the wrong pair\n", len(entries)-dated, len(entries))
	}
	for _, e := range entries {
		fmt.Fprintf(bw, "  %s\n", e.name)
	}

	// Collect each metric's series in timeline order, remembering which
	// entry each point came from: the regression gate fires only when a
	// metric's latest point IS the newest artifact — a metric that was
	// renamed or dropped before the newest commit is reported "stale",
	// never flagged, or CI would fail on historical shifts the current
	// commit does not even report.
	type seriesPoint struct {
		entry int
		pt    trendPoint
	}
	series := map[string][]seriesPoint{}
	for i, e := range entries {
		for name, p := range e.metrics {
			series[name] = append(series[name], seriesPoint{entry: i, pt: p})
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(bw, "%-52s %6s %14s %14s %9s  %s\n", "metric", "points", "first", "latest", "delta", "flag")
	var shifted []string
	for _, name := range names {
		pts := series[name]
		first, last := pts[0].pt, pts[len(pts)-1].pt
		delta := "" // relative move of the latest point vs its predecessor
		flag := ""
		switch {
		case len(pts) < 2:
			flag = "baseline"
		default:
			prev := pts[len(pts)-2].pt
			if prev.mean != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(last.mean-prev.mean)/math.Abs(prev.mean))
			} else {
				delta = fmt.Sprintf("%+g", last.mean-prev.mean)
			}
			if pts[len(pts)-1].entry != len(entries)-1 {
				flag = "stale"
			} else if trendShifted(name, prev, last, relTol) {
				flag = "SHIFT"
				shifted = append(shifted, name)
			}
		}
		fmt.Fprintf(bw, "%-52s %6d %14.6g %14.6g %9s  %s\n", name, len(pts), first.mean, last.mean, delta, flag)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if len(shifted) > 0 {
		return fmt.Errorf("trend: %d metric(s) shifted significantly in the newest artifact: %s",
			len(shifted), strings.Join(shifted, ", "))
	}
	return nil
}

// costUnits are the benchmark units where lower is better: only a rise
// is a regression, so a speed-up or an allocation drop never fails the
// gate. Every other metric — simulated results such as tsim_s and muF,
// and custom bench metrics — is gated in both directions.
var costUnits = []string{"/ns_per_op", "/B_per_op", "/allocs_per_op"}

// trendShifted decides whether the latest point of metric name moved
// significantly off its predecessor: Welch's t when both points carry a
// dispersion estimate, the relative threshold otherwise (any move at
// all off a zero baseline). For cost units only an increase counts.
func trendShifted(name string, prev, last trendPoint, relTol float64) bool {
	if math.IsNaN(prev.mean) || math.IsNaN(last.mean) {
		return math.IsNaN(prev.mean) != math.IsNaN(last.mean)
	}
	for _, unit := range costUnits {
		if strings.HasSuffix(name, unit) && last.mean <= prev.mean {
			return false
		}
	}
	if prev.n >= 2 && last.n >= 2 && (prev.stderr > 0 || last.stderr > 0) {
		return stats.WelchSignificant(
			stats.Aggregate{N: prev.n, Mean: prev.mean, StdErr: prev.stderr},
			stats.Aggregate{N: last.n, Mean: last.mean, StdErr: last.stderr},
		)
	}
	diff := math.Abs(last.mean - prev.mean)
	if prev.mean == 0 {
		return diff != 0
	}
	return diff > relTol*math.Abs(prev.mean)
}

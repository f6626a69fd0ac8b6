package records

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// MetricDelta is one metric that differs between two runs of the same
// task.
type MetricDelta struct {
	// Name is the manifest column, e.g. "fidelity_mean".
	Name string
	// A and B are the two observed values; Delta is B − A.
	A, B, Delta float64
}

// ConfigDelta is a configuration field that differs between two rows
// claiming the same task ID — the runs were not comparable to begin
// with.
type ConfigDelta struct {
	Name string
	A, B string
}

// RowDiff collects everything that differs for one task ID.
type RowDiff struct {
	ID      string
	Config  []ConfigDelta
	Metrics []MetricDelta
}

// ManifestDiff reports how two run manifests differ, task by task.
// Wall-clock fields and worker accounting are excluded by design: they
// legitimately vary between executions of the same experiment, and the
// diff exists to surface result drift, not scheduling noise.
type ManifestDiff struct {
	// LabelA and LabelB name the two runs.
	LabelA, LabelB string
	// Rows lists tasks present in both manifests whose configuration
	// or metrics differ, in manifest-A order.
	Rows []RowDiff
	// OnlyInA and OnlyInB list task IDs present in one manifest only.
	OnlyInA, OnlyInB []string
	// Compared counts the task IDs present in both manifests.
	Compared int
}

// Empty reports whether the two manifests agree on every shared task
// and neither has tasks the other lacks.
func (d *ManifestDiff) Empty() bool {
	return len(d.Rows) == 0 && len(d.OnlyInA) == 0 && len(d.OnlyInB) == 0
}

// DiffOptions tunes the metric comparison of DiffManifests. The zero
// value preserves the exact gate: metrics are equal only when their
// bits say so (with NaN equal to NaN — see metricsEqual).
type DiffOptions struct {
	// AbsTol treats two metric values within this absolute distance as
	// equal, for cross-platform float drift. 0 means exact.
	AbsTol float64
	// RelTol treats two metric values within RelTol·max(|a|,|b|) of
	// each other as equal. 0 means exact. When both tolerances are set,
	// a value passing either one is equal.
	RelTol float64
}

// metricsEqual is the metric comparison under opt. NaN compares equal
// to NaN: a manifest is equal to a byte-identical copy of itself even
// when a metric is NaN (mean wait of a run that finished no jobs, a
// degenerate sweep) — under IEEE semantics NaN != NaN, which made the
// exact-equality gate fail spuriously on identical replicated runs.
// (NaN manifests live in memory and CSV only: encoding/json has no NaN
// literal, so WriteJSON rejects them — the JSON diff path can never
// present two NaN files, but the API and CSV paths can.)
func (opt DiffOptions) metricsEqual(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	diff := math.Abs(b - a) // NaN on one side only: all checks below stay false
	if math.IsInf(diff, 0) {
		// An infinite disagreement (one side ±Inf, or opposite
		// infinities) is never within tolerance — without this guard
		// the relative bound would compare Inf <= Inf and pass it.
		return false
	}
	if opt.AbsTol > 0 && diff <= opt.AbsTol {
		return true
	}
	return opt.RelTol > 0 && diff <= opt.RelTol*math.Max(math.Abs(a), math.Abs(b))
}

// DiffManifests compares two run manifests task by task (matched on
// ID) and reports per-label metric deltas, configuration mismatches,
// and tasks present on one side only. Wall times and worker accounting
// are ignored, so diffing a -workers 1 run against a pooled run of the
// same spec reports Empty — the determinism gate CI relies on. Metrics
// compare under opt (exactly, NaN equal to NaN, for the zero value);
// configuration fields always compare exactly: two runs with drifted
// configs are not the same experiment at any tolerance.
func DiffManifests(a, b *RunManifest, opt DiffOptions) *ManifestDiff {
	d := &ManifestDiff{LabelA: a.Label, LabelB: b.Label}
	byID := make(map[string]*RunSummary, len(b.Runs))
	for i := range b.Runs {
		byID[b.Runs[i].ID] = &b.Runs[i]
	}
	seenInA := make(map[string]bool, len(a.Runs))
	for i := range a.Runs {
		ra := &a.Runs[i]
		seenInA[ra.ID] = true
		rb, ok := byID[ra.ID]
		if !ok {
			d.OnlyInA = append(d.OnlyInA, ra.ID)
			continue
		}
		d.Compared++
		var row RowDiff
		for _, c := range configCols {
			if va, vb := c.get(ra), c.get(rb); va != vb {
				row.Config = append(row.Config, ConfigDelta{Name: c.name, A: va, B: vb})
			}
		}
		for _, c := range metricCols {
			if va, vb := c.get(ra), c.get(rb); !opt.metricsEqual(va, vb) {
				row.Metrics = append(row.Metrics, MetricDelta{Name: c.name, A: va, B: vb, Delta: vb - va})
			}
		}
		if len(row.Config)+len(row.Metrics) > 0 {
			row.ID = ra.ID
			d.Rows = append(d.Rows, row)
		}
	}
	for i := range b.Runs {
		if !seenInA[b.Runs[i].ID] {
			d.OnlyInB = append(d.OnlyInB, b.Runs[i].ID)
		}
	}
	return d
}

// Write renders the diff as a human-readable report.
func (d *ManifestDiff) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if d.Empty() {
		fmt.Fprintf(bw, "manifests agree on all %d task(s)\n", d.Compared)
		return bw.Flush()
	}
	fmt.Fprintf(bw, "manifests differ (%q vs %q):\n", d.LabelA, d.LabelB)
	for _, row := range d.Rows {
		writeRowConfig(bw, row.ID, row.Config)
		for _, m := range row.Metrics {
			fmt.Fprintf(bw, "    %-27s %g -> %g (delta %+g)\n", m.Name, m.A, m.B, m.Delta)
		}
	}
	writeOnlyIn(bw, d.LabelA, d.OnlyInA, d.LabelB, d.OnlyInB)
	return bw.Flush()
}

// writeRowConfig writes a diff row's header and its configuration
// deltas, the part both diff reports share.
func writeRowConfig(bw *bufio.Writer, id string, config []ConfigDelta) {
	fmt.Fprintf(bw, "  %s:\n", id)
	for _, c := range config {
		fmt.Fprintf(bw, "    config %-20s %s -> %s\n", c.Name, c.A, c.B)
	}
}

// writeOnlyIn lists the task IDs present in only one of two manifests.
func writeOnlyIn(bw *bufio.Writer, labelA string, onlyA []string, labelB string, onlyB []string) {
	for _, id := range onlyA {
		fmt.Fprintf(bw, "  only in %q: %s\n", labelA, id)
	}
	for _, id := range onlyB {
		fmt.Fprintf(bw, "  only in %q: %s\n", labelB, id)
	}
}

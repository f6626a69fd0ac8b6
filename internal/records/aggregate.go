package records

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// replicaSep separates a base task ID from its workload-seed suffix in
// replicated runs, e.g. "mode/speed@seed7". The separator never occurs
// in matrix-enumerated IDs, so the split is unambiguous.
const replicaSep = "@seed"

// ReplicaID names one seed's replica of a base task. It is the ID
// scheme the spec-level replication fan-out emits and
// AggregateManifests folds back.
func ReplicaID(base string, seed int64) string {
	return base + replicaSep + strconv.FormatInt(seed, 10)
}

// SplitReplicaID splits a replicated task ID into its base task and
// workload seed. ok is false for IDs without a well-formed replica
// suffix — those are ordinary tasks and aggregate as singletons.
func SplitReplicaID(id string) (base string, seed int64, ok bool) {
	i := strings.LastIndex(id, replicaSep)
	if i < 0 {
		return id, 0, false
	}
	seed, err := strconv.ParseInt(id[i+len(replicaSep):], 10, 64)
	if err != nil {
		return id, 0, false
	}
	return id[:i], seed, true
}

// MetricAggregate is the serialized form of one metric's
// stats.Aggregate across a task's replicas: sample mean, sample (n−1)
// standard deviation, standard error of the mean, and the Student-t
// 95% confidence half-width. The replica count lives on the row (all
// metrics of a row share it).
type MetricAggregate struct {
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	StdErr float64 `json:"stderr"`
	CI95   float64 `json:"ci95"`
}

// aggregate restores the stats form, re-attaching the row's N.
func (m MetricAggregate) aggregate(n int) stats.Aggregate {
	return stats.Aggregate{N: n, Mean: m.Mean, Std: m.Std, StdErr: m.StdErr, CI95: m.CI95}
}

// AggregatedRow is one base task of a replicated run with its metrics
// folded across workload seeds. Configuration fields are those shared
// by every replica (the workload seed is what varies, recorded in
// Seeds); Metrics is keyed by manifest metric column.
type AggregatedRow struct {
	// ID is the base task ID, e.g. "mode/speed" — the replica suffix
	// stripped.
	ID string `json:"id"`
	// Kind and Mode mirror the underlying RunSummary rows.
	Kind string `json:"kind"`
	Mode string `json:"mode"`
	// Param is the swept parameter value (sweep kinds only).
	Param float64 `json:"param"`
	// N is the replica count; Seeds lists the workload seeds folded, in
	// row order.
	N     int     `json:"n"`
	Seeds []int64 `json:"seeds"`
	// The remaining configuration matches RunSummary.
	FleetSeed         int64   `json:"fleet_seed"`
	FleetPreset       string  `json:"fleet_preset,omitempty"`
	Phi               float64 `json:"phi"`
	Lambda            float64 `json:"lambda"`
	Jobs              int     `json:"jobs"`
	MeanInterarrivalS float64 `json:"mean_interarrival_s,omitempty"`
	TracePath         string  `json:"trace_path,omitempty"`
	TrainSteps        *int    `json:"train_steps,omitempty"`
	RLSeed            *int64  `json:"rl_seed,omitempty"`
	RLDeterministic   *bool   `json:"rl_deterministic,omitempty"`
	// Metrics holds one aggregate per manifest metric column
	// (tsim_s, fidelity_mean, …). JSON emits keys sorted, so the
	// encoding is deterministic.
	Metrics map[string]MetricAggregate `json:"metrics"`
}

// AggregatedManifest is the replication-folded form of a RunManifest:
// one row per base task with per-metric mean/std/stderr/CI95 across
// workload seeds. It is the input currency of significance diffing
// (DiffAggregated) and trend tracking.
type AggregatedManifest struct {
	// Label names the run, carried over from the source manifest.
	Label string `json:"label"`
	// Rows holds one aggregated row per base task, in first-appearance
	// order of the source manifest.
	Rows []AggregatedRow `json:"rows"`
}

// AggregateManifests folds the per-seed rows of a replicated run
// manifest into per-task aggregates. Rows whose ID carries a replica
// suffix ("…@seed<k>") group under their base ID; other rows aggregate
// as singletons (N=1, no dispersion estimate), so a plain manifest
// stays diffable through the same significance machinery. It is an
// error for replicas of one base task to disagree on any configuration
// field other than the workload seed, for a replica suffix to
// contradict the row's recorded workload seed, or for a task ID to
// repeat — any of those means the manifest is not the output of one
// coherent replicated run.
func AggregateManifests(m *RunManifest) (*AggregatedManifest, error) {
	out := &AggregatedManifest{Label: m.Label}
	index := make(map[string]int)         // base ID -> out.Rows index
	first := make(map[string]*RunSummary) // base ID -> the group's reference row
	samples := make(map[string]map[string][]float64)
	seenID := make(map[string]bool, len(m.Runs))
	for i := range m.Runs {
		r := &m.Runs[i]
		if seenID[r.ID] {
			return nil, fmt.Errorf("records: aggregate: task %q appears twice", r.ID)
		}
		seenID[r.ID] = true
		base, seed, replicated := SplitReplicaID(r.ID)
		if replicated && seed != r.WorkloadSeed {
			return nil, fmt.Errorf("records: aggregate: %q names seed %d but ran with workload seed %d", r.ID, seed, r.WorkloadSeed)
		}
		j, ok := index[base]
		if ok {
			// Duplicate IDs are caught above, so a second row can only
			// join a group if both it and the group's first row are
			// "@seed" replicas. A bare row whose ID collides with a
			// replica group's base (in either order) is a different
			// task that happens to share the name — folding its
			// unrelated observation into the statistics would corrupt
			// them silently.
			_, _, groupReplicated := SplitReplicaID(first[base].ID)
			if !replicated || !groupReplicated {
				return nil, fmt.Errorf("records: aggregate: task %q mixes replica and non-replica rows under base ID %q", r.ID, base)
			}
		}
		if !ok {
			j = len(out.Rows)
			index[base] = j
			first[base] = r
			out.Rows = append(out.Rows, AggregatedRow{
				ID: base, Kind: r.Kind, Mode: r.Mode, Param: r.Param,
				FleetSeed: r.FleetSeed, FleetPreset: r.FleetPreset,
				Phi: r.Phi, Lambda: r.Lambda, Jobs: r.Jobs,
				MeanInterarrivalS: r.MeanInterarrivalS, TracePath: r.TracePath,
				TrainSteps: r.TrainSteps, RLSeed: r.RLSeed, RLDeterministic: r.RLDeterministic,
			})
			samples[base] = make(map[string][]float64, len(metricCols))
		} else {
			for _, c := range configCols {
				if c.name == "workload_seed" {
					continue
				}
				if va, vb := c.get(first[base]), c.get(r); va != vb {
					return nil, fmt.Errorf("records: aggregate: replicas of %q disagree on %s (%s vs %s)", base, c.name, va, vb)
				}
			}
		}
		row := &out.Rows[j]
		row.N++
		row.Seeds = append(row.Seeds, r.WorkloadSeed)
		for _, c := range metricCols {
			samples[base][c.name] = append(samples[base][c.name], c.get(r))
		}
	}
	for i := range out.Rows {
		row := &out.Rows[i]
		row.Metrics = make(map[string]MetricAggregate, len(metricCols))
		for _, c := range metricCols {
			a := stats.AggregateSamples(samples[row.ID][c.name])
			row.Metrics[c.name] = MetricAggregate{Mean: a.Mean, Std: a.Std, StdErr: a.StdErr, CI95: a.CI95}
		}
	}
	return out, nil
}

// WriteJSON emits the aggregated manifest as indented JSON, the
// round-trip inverse of ReadAggregatedJSON.
func (m *AggregatedManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadAggregatedJSON restores an aggregated manifest written by
// WriteJSON.
func ReadAggregatedJSON(r io.Reader) (*AggregatedManifest, error) {
	var m AggregatedManifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("records: decoding aggregated manifest: %w", err)
	}
	return &m, nil
}

// WriteCSV emits one row per base task: id, aggConfigCols, then the
// mean/std/stderr/ci95 columns of each metric in metricCols.
func (m *AggregatedManifest) WriteCSV(w io.Writer) error {
	header := []string{"id"}
	for _, c := range aggConfigCols {
		header = append(header, c.name)
	}
	for _, c := range metricCols {
		header = append(header, c.name+"_mean", c.name+"_std", c.name+"_stderr", c.name+"_ci95")
	}
	return writeTable(w, header, len(m.Rows), func(row []string, i int) []string {
		r := &m.Rows[i]
		row = append(row, r.ID)
		for _, c := range aggConfigCols {
			row = append(row, c.get(r))
		}
		for _, c := range metricCols {
			a := r.Metrics[c.name]
			row = append(row, formatFloat(a.Mean), formatFloat(a.Std), formatFloat(a.StdErr), formatFloat(a.CI95))
		}
		return row
	})
}

// sigAlpha is the two-tailed significance level of DiffAggregated, the
// only one the embedded critical-value table (97.5th percentile of
// Student's t) supports.
const sigAlpha = 0.05

// SigDelta is one metric whose means differ significantly between two
// aggregated runs of the same base task.
type SigDelta struct {
	// Name is the metric column, e.g. "fidelity_mean".
	Name string
	// A and B are the two aggregates; NA and NB their replica counts.
	A, B   MetricAggregate
	NA, NB int
	// Delta is B.Mean − A.Mean.
	Delta float64
	// T and DF are Welch's statistic and the Welch–Satterthwaite
	// degrees of freedom; both zero when the CI95-overlap fallback (or
	// the NaN check) decided instead.
	T, DF float64
	// Method names the decision rule: "welch", "ci95-overlap", or
	// "nan" (exactly one side is NaN).
	Method string
}

// AggRowDiff collects everything significant for one base task.
type AggRowDiff struct {
	ID      string
	Config  []ConfigDelta
	Metrics []SigDelta
}

// AggregatedDiff reports how two aggregated manifests differ, base
// task by base task, at two-tailed alpha=0.05. Unlike the
// exact ManifestDiff, metric deltas appear only when the statistics
// say the means moved: Welch's t on the stored N/mean/StdErr when both
// sides carry a dispersion estimate (N >= 2), CI95-overlap otherwise —
// which for N=1 rows degenerates to exact mean equality, preserving
// the determinism gate on unreplicated tasks.
type AggregatedDiff struct {
	LabelA, LabelB string
	// Rows lists base tasks with configuration drift or significant
	// metric deltas, in manifest-A order.
	Rows []AggRowDiff
	// OnlyInA and OnlyInB list base task IDs present on one side only.
	OnlyInA, OnlyInB []string
	// Compared counts base tasks present in both manifests.
	Compared int
}

// Empty reports whether the two runs are statistically
// indistinguishable: no significant metric delta, no configuration
// drift, no one-sided tasks.
func (d *AggregatedDiff) Empty() bool {
	return len(d.Rows) == 0 && len(d.OnlyInA) == 0 && len(d.OnlyInB) == 0
}

// aggConfigCols are an aggregated row's configuration columns in file
// order: the CSV writer's columns after id, and the fields whose
// disagreement means two rows are not runs of the same replicated
// experiment. The sampling design — replica count and seed list — is
// configuration too: aggregates over different seed sets are a changed
// experiment to a regression gate.
var aggConfigCols = []struct {
	name string
	get  func(*AggregatedRow) string
}{
	{"kind", func(r *AggregatedRow) string { return r.Kind }},
	{"mode", func(r *AggregatedRow) string { return r.Mode }},
	{"param", func(r *AggregatedRow) string { return formatFloat(r.Param) }},
	{"n", func(r *AggregatedRow) string { return strconv.Itoa(r.N) }},
	{"seeds", func(r *AggregatedRow) string {
		parts := make([]string, len(r.Seeds))
		for i, s := range r.Seeds {
			parts[i] = strconv.FormatInt(s, 10)
		}
		return strings.Join(parts, "+")
	}},
	{"fleet_seed", func(r *AggregatedRow) string { return strconv.FormatInt(r.FleetSeed, 10) }},
	{"fleet_preset", func(r *AggregatedRow) string { return r.FleetPreset }},
	{"phi", func(r *AggregatedRow) string { return formatFloat(r.Phi) }},
	{"lambda", func(r *AggregatedRow) string { return formatFloat(r.Lambda) }},
	{"jobs", func(r *AggregatedRow) string { return strconv.Itoa(r.Jobs) }},
	{"mean_interarrival_s", func(r *AggregatedRow) string { return formatFloat(r.MeanInterarrivalS) }},
	{"trace_path", func(r *AggregatedRow) string { return r.TracePath }},
	{"train_steps", func(r *AggregatedRow) string { return fmtIntPtr(r.TrainSteps) }},
	{"rl_seed", func(r *AggregatedRow) string { return fmtInt64Ptr(r.RLSeed) }},
	{"rl_deterministic", func(r *AggregatedRow) string { return fmtBoolPtr(r.RLDeterministic) }},
}

// DiffAggregated compares two aggregated manifests base task by base
// task and reports only statistically significant metric movement at
// alpha=0.05 (see AggregatedDiff).
func DiffAggregated(a, b *AggregatedManifest) *AggregatedDiff {
	d := &AggregatedDiff{LabelA: a.Label, LabelB: b.Label}
	byID := make(map[string]*AggregatedRow, len(b.Rows))
	for i := range b.Rows {
		byID[b.Rows[i].ID] = &b.Rows[i]
	}
	seenInA := make(map[string]bool, len(a.Rows))
	for i := range a.Rows {
		ra := &a.Rows[i]
		seenInA[ra.ID] = true
		rb, ok := byID[ra.ID]
		if !ok {
			d.OnlyInA = append(d.OnlyInA, ra.ID)
			continue
		}
		d.Compared++
		var row AggRowDiff
		for _, c := range aggConfigCols {
			if va, vb := c.get(ra), c.get(rb); va != vb {
				row.Config = append(row.Config, ConfigDelta{Name: c.name, A: va, B: vb})
			}
		}
		for _, name := range metricNameUnion(ra, rb) {
			ma, okA := ra.Metrics[name]
			mb, okB := rb.Metrics[name]
			if okA != okB {
				row.Config = append(row.Config, ConfigDelta{Name: "metric " + name, A: presence(okA), B: presence(okB)})
				continue
			}
			if delta, sig := significant(ma.aggregate(ra.N), mb.aggregate(rb.N)); sig != nil {
				sig.Name = name
				sig.A, sig.B = ma, mb
				sig.NA, sig.NB = ra.N, rb.N
				sig.Delta = delta
				row.Metrics = append(row.Metrics, *sig)
			}
		}
		if len(row.Config)+len(row.Metrics) > 0 {
			row.ID = ra.ID
			d.Rows = append(d.Rows, row)
		}
	}
	for i := range b.Rows {
		if !seenInA[b.Rows[i].ID] {
			d.OnlyInB = append(d.OnlyInB, b.Rows[i].ID)
		}
	}
	return d
}

// significant applies the decision rule to one metric pair and returns
// a partially filled SigDelta when the means differ significantly, nil
// otherwise. delta is always B−A.
func significant(a, b stats.Aggregate) (delta float64, sig *SigDelta) {
	delta = b.Mean - a.Mean
	// NaN means: equal when both are NaN, definitely different when
	// only one is — Welch's NaN propagation would silently pass the
	// mixed case otherwise.
	if math.IsNaN(a.Mean) || math.IsNaN(b.Mean) {
		if math.IsNaN(a.Mean) && math.IsNaN(b.Mean) {
			return delta, nil
		}
		return delta, &SigDelta{Method: "nan"}
	}
	if a.N >= 2 && b.N >= 2 {
		if t, df := stats.Welch(a, b); df > 0 {
			if math.Abs(t) > stats.TCrit975(df) {
				return delta, &SigDelta{T: t, DF: df, Method: "welch"}
			}
			return delta, nil
		}
		// Both dispersion estimates are zero: fall through to the
		// overlap rule, which is exact equality here.
	}
	// CI95-overlap fallback: the intervals [mean±CI95] must intersect.
	// With no dispersion estimate (N < 2) both half-widths are zero and
	// this is exact mean equality — the determinism gate.
	if math.Abs(delta) > a.CI95+b.CI95 {
		return delta, &SigDelta{Method: "ci95-overlap"}
	}
	return delta, nil
}

// metricNameUnion returns the sorted union of two rows' metric names.
func metricNameUnion(a, b *AggregatedRow) []string {
	set := make(map[string]bool, len(a.Metrics)+len(b.Metrics))
	for name := range a.Metrics {
		set[name] = true
	}
	for name := range b.Metrics {
		set[name] = true
	}
	names := make([]string, 0, len(set))
	//lint:allow detlint collect-then-sort: the sort.Strings below fixes the order before anyone observes it
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func presence(ok bool) string {
	if ok {
		return "present"
	}
	return "absent"
}

// Write renders the significance diff as a human-readable report.
func (d *AggregatedDiff) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if d.Empty() {
		fmt.Fprintf(bw, "aggregated manifests agree at alpha=%g on all %d base task(s)\n", sigAlpha, d.Compared)
		return bw.Flush()
	}
	fmt.Fprintf(bw, "aggregated manifests differ at alpha=%g (%q vs %q):\n", sigAlpha, d.LabelA, d.LabelB)
	for _, row := range d.Rows {
		writeRowConfig(bw, row.ID, row.Config)
		for _, m := range row.Metrics {
			detail := m.Method
			if m.Method == "welch" {
				detail = fmt.Sprintf("welch t=%.3f df=%.1f", m.T, m.DF)
			}
			fmt.Fprintf(bw, "    %-27s mean %g -> %g (delta %+g, n %d vs %d, %s)\n",
				m.Name, m.A.Mean, m.B.Mean, m.Delta, m.NA, m.NB, detail)
		}
	}
	writeOnlyIn(bw, d.LabelA, d.OnlyInA, d.LabelB, d.OnlyInB)
	return bw.Flush()
}

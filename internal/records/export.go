package records

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// WriteCSV emits one row per finished job with the full lifecycle and
// outcome metrics, for post-simulation analysis outside the framework
// (the paper's "centralized data management ... supporting
// post-simulation workload analysis", §3).
//
// The bytes are exactly what encoding/csv's Writer writes for the same
// fields: rows are appended to one reused buffer (appendStatsRow), which
// goes to w whenever it reaches statsFlushAt bytes.
func (m *Manager) WriteCSV(w io.Writer) error {
	return writeStatsCSV(w, m.rows)
}

// writeStatsCSV writes the per-job records CSV over rows.
func writeStatsCSV(w io.Writer, rows []*JobStats) error {
	buf := make([]byte, 0, statsFlushAt+1024)
	buf = append(buf, statsHeader...)
	for _, s := range rows {
		buf = appendStatsRow(buf, s)
		if len(buf) >= statsFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// statsHeader is the first line of the per-job records CSV.
const statsHeader = "job_id,arrival,start,finish,wait,exec,turnaround," +
	"fidelity,comm_time,devices,device_names,source,remote,conn_id\n"

// statsFlushAt is the buffered size at which writeStatsCSV writes.
const statsFlushAt = 64 << 10

// appendStatsRow appends s's records CSV line to dst. Floats take
// strconv's shortest 'g' form; the string fields are quoted only where
// encoding/csv would quote them. The conn_id column is blank when no
// source was recorded (batch rows, where conn 0 means "unset").
func appendStatsRow(dst []byte, s *JobStats) []byte {
	dst = appendCSVField(dst, s.JobID)
	for _, v := range [...]float64{
		s.Arrival, s.Start, s.Finish,
		s.WaitTime(), s.ExecTime(), s.Turnaround(),
		s.Fidelity, s.CommTime,
	} {
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s.Devices), 10)
	dst = append(dst, ',')
	// Join the device names in place; the joined field is quoted only in
	// the rare case that it needs it.
	start := len(dst)
	for i, name := range s.DeviceNames {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = append(dst, name...)
	}
	if csvNeedsQuotes(dst[start:]) {
		joined := string(dst[start:])
		dst = appendCSVQuoted(dst[:start], joined)
	}
	dst = append(dst, ',')
	dst = appendCSVField(dst, s.Source)
	dst = append(dst, ',')
	dst = appendCSVField(dst, s.Remote)
	dst = append(dst, ',')
	if s.Source != "" {
		dst = strconv.AppendInt(dst, s.ConnID, 10)
	}
	return append(dst, '\n')
}

// appendCSVField appends one CSV field as encoding/csv's Writer (comma
// separator, LF line ends) writes it.
func appendCSVField(dst []byte, field string) []byte {
	if csvNeedsQuotes(field) {
		return appendCSVQuoted(dst, field)
	}
	return append(dst, field...)
}

// csvNeedsQuotes mirrors encoding/csv's fieldNeedsQuotes for the comma
// separator: a field is quoted when it holds a comma, quote, CR or LF,
// starts with a Unicode space, or is Postgres's end-of-data marker `\.`.
func csvNeedsQuotes[T string | []byte](field T) bool {
	if len(field) == 0 {
		return false
	}
	if string(field) == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	if c := field[0]; c < utf8.RuneSelf {
		return unicode.IsSpace(rune(c))
	}
	r, _ := utf8.DecodeRuneInString(string(field[:min(len(field), utf8.UTFMax)]))
	return unicode.IsSpace(r)
}

// appendCSVQuoted appends field in quotes, doubling each quote inside it
// and copying CR and LF verbatim, as encoding/csv's Writer does.
func appendCSVQuoted(dst []byte, field string) []byte {
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		dst = append(dst, field[:i+1]...)
		dst = append(dst, '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}

// RunSummary is one completed simulation task in a run manifest: the
// configuration that produced it plus the headline Table 2 metrics. It
// is a flat value type so manifests round-trip through JSON and CSV
// without depending on the simulation packages.
type RunSummary struct {
	// ID uniquely names the task within its manifest, e.g. "mode/speed",
	// "phi-sweep/speed/0.95", or a seed replica "mode/speed@seed3".
	ID string `json:"id"`
	// Kind groups tasks: "mode", "phi-sweep", "lambda-sweep",
	// "rl-deploy". A seed replica keeps its base task's kind.
	Kind string `json:"kind"`
	// Mode is the allocation strategy simulated.
	Mode string `json:"mode"`
	// Param is the swept parameter value (sweep kinds only; zero can be
	// a legitimate swept value, so it is always emitted and Kind tells
	// sweep rows apart).
	Param float64 `json:"param"`
	// WorkloadSeed and FleetSeed pin the task's random streams.
	WorkloadSeed int64 `json:"workload_seed"`
	FleetSeed    int64 `json:"fleet_seed"`
	// FleetPreset names the device-fleet preset the task ran on; empty
	// is the standard paper fleet. Recorded so runs of different
	// scenarios are distinguishable when diffing manifests.
	FleetPreset string `json:"fleet_preset,omitempty"`
	// Phi and Lambda snapshot the model constants in effect.
	Phi    float64 `json:"phi"`
	Lambda float64 `json:"lambda"`
	// Jobs is the workload size; MeanInterarrivalS the workload's mean
	// Poisson inter-arrival time in seconds (0 = all jobs at t=0).
	Jobs              int     `json:"jobs"`
	MeanInterarrivalS float64 `json:"mean_interarrival_s,omitempty"`
	// TracePath names the workload trace the task replayed instead of
	// the synthetic generator (trace-replay scenario rows). Empty means
	// a synthetic workload; when set, Jobs counts the loaded trace and
	// MeanInterarrivalS is not meaningful.
	TracePath string `json:"trace_path,omitempty"`
	// TrainSteps, RLSeed and RLDeterministic pin the rlbase policy:
	// training budget, deployment sampling seed, and sampled-vs-mean
	// deployment. Pointers so presence means "rlbase row" and explicit
	// zero values (seed 0, injected pre-trained policy with 0 steps,
	// sampled deployment) survive JSON instead of vanishing under
	// omitempty.
	TrainSteps      *int   `json:"train_steps,omitempty"`
	RLSeed          *int64 `json:"rl_seed,omitempty"`
	RLDeterministic *bool  `json:"rl_deterministic,omitempty"`
	// TsimS, FidelityMean, FidelityStd, TcommS, MeanDevicesPerJob and
	// MeanWaitS mirror core.Results.
	TsimS             float64 `json:"tsim_s"`
	FidelityMean      float64 `json:"fidelity_mean"`
	FidelityStd       float64 `json:"fidelity_std"`
	TcommS            float64 `json:"tcomm_s"`
	MeanDevicesPerJob float64 `json:"mean_devices_per_job"`
	MeanWaitS         float64 `json:"mean_wait_s"`
	// WallMS is the host wall-clock time the simulation took.
	WallMS float64 `json:"wall_ms"`
}

// RunManifest aggregates every task of one orchestrated experiment run,
// the artifact the parallel runner exports for post-run analysis and
// run-to-run diffing.
type RunManifest struct {
	// Label names the run, e.g. "table2" or "phi-sweep/speed".
	Label string `json:"label"`
	// Workers records the configured worker-pool cap (batches smaller
	// than the cap run on fewer workers).
	Workers int `json:"workers,omitempty"`
	// Runs holds one summary per task in submission order.
	Runs []RunSummary `json:"runs"`
}

// WriteJSON emits the manifest as indented JSON.
func (m *RunManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// configCols are a manifest row's configuration columns in file order:
// the CSV writer's columns after id, and the fields whose disagreement
// means two rows are not runs of the same experiment.
var configCols = []struct {
	name string
	get  func(*RunSummary) string
}{
	{"kind", func(r *RunSummary) string { return r.Kind }},
	{"mode", func(r *RunSummary) string { return r.Mode }},
	{"param", func(r *RunSummary) string { return formatFloat(r.Param) }},
	{"workload_seed", func(r *RunSummary) string { return strconv.FormatInt(r.WorkloadSeed, 10) }},
	{"fleet_seed", func(r *RunSummary) string { return strconv.FormatInt(r.FleetSeed, 10) }},
	{"fleet_preset", func(r *RunSummary) string { return r.FleetPreset }},
	{"phi", func(r *RunSummary) string { return formatFloat(r.Phi) }},
	{"lambda", func(r *RunSummary) string { return formatFloat(r.Lambda) }},
	{"jobs", func(r *RunSummary) string { return strconv.Itoa(r.Jobs) }},
	{"mean_interarrival_s", func(r *RunSummary) string { return formatFloat(r.MeanInterarrivalS) }},
	{"trace_path", func(r *RunSummary) string { return r.TracePath }},
	{"train_steps", func(r *RunSummary) string { return fmtIntPtr(r.TrainSteps) }},
	{"rl_seed", func(r *RunSummary) string { return fmtInt64Ptr(r.RLSeed) }},
	{"rl_deterministic", func(r *RunSummary) string { return fmtBoolPtr(r.RLDeterministic) }},
}

// metricCols are a manifest row's result metrics in file order, after
// configCols. WallMS is deliberately absent: it is host timing, written
// last and never compared.
var metricCols = []struct {
	name string
	get  func(*RunSummary) float64
}{
	{"tsim_s", func(r *RunSummary) float64 { return r.TsimS }},
	{"fidelity_mean", func(r *RunSummary) float64 { return r.FidelityMean }},
	{"fidelity_std", func(r *RunSummary) float64 { return r.FidelityStd }},
	{"tcomm_s", func(r *RunSummary) float64 { return r.TcommS }},
	{"mean_devices_per_job", func(r *RunSummary) float64 { return r.MeanDevicesPerJob }},
	{"mean_wait_s", func(r *RunSummary) float64 { return r.MeanWaitS }},
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV emits one row per task with a header: id, configCols,
// metricCols, wall_ms.
func (m *RunManifest) WriteCSV(w io.Writer) error {
	header := []string{"id"}
	for _, c := range configCols {
		header = append(header, c.name)
	}
	for _, c := range metricCols {
		header = append(header, c.name)
	}
	header = append(header, "wall_ms")
	return writeTable(w, header, len(m.Runs), func(row []string, i int) []string {
		r := &m.Runs[i]
		row = append(row, r.ID)
		for _, c := range configCols {
			row = append(row, c.get(r))
		}
		for _, c := range metricCols {
			row = append(row, formatFloat(c.get(r)))
		}
		return append(row, formatFloat(r.WallMS))
	})
}

// writeTable writes header and then the n records row(dst, i) appends
// to dst, a reused buffer.
func writeTable(w io.Writer, header []string, n int, row func(dst []string, i int) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	buf := make([]string, 0, len(header))
	for i := 0; i < n; i++ {
		if err := cw.Write(row(buf[:0], i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtBoolPtr, fmtIntPtr and fmtInt64Ptr render optional fields for
// CSV: blank when unset.
func fmtBoolPtr(b *bool) string {
	if b == nil {
		return ""
	}
	return strconv.FormatBool(*b)
}

func fmtIntPtr(v *int) string {
	if v == nil {
		return ""
	}
	return strconv.Itoa(*v)
}

func fmtInt64Ptr(v *int64) string {
	if v == nil {
		return ""
	}
	return strconv.FormatInt(*v, 10)
}

// ReadManifestJSON restores a manifest written by WriteJSON, for
// run-to-run comparison tooling.
func ReadManifestJSON(r io.Reader) (*RunManifest, error) {
	var m RunManifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("records: decoding manifest: %w", err)
	}
	return &m, nil
}

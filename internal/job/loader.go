package job

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// LoadFile reads a workload file: LoadJSON for a ".json" extension (any
// case), LoadCSV for anything else.
func LoadFile(path string) ([]*QJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only workload file cannot lose data
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return LoadJSON(f)
	}
	return LoadCSV(f)
}

// CSV column layout for deterministic workloads (§3 JobGenerator):
//
//	job_id,num_qubits,depth,num_shots,arrival_time[,two_qubit_gates]
//
// A header row is detected and skipped. arrival_time may be empty, in
// which case 0 is assigned (the paper assigns "the current timestamp";
// deterministic loads start at t=0). two_qubit_gates is optional and
// defaults to round(0.25·q·d).

// LoadCSV reads a deterministic workload from CSV. Jobs are returned in
// arrival order.
func LoadCSV(r io.Reader) ([]*QJob, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated per row below
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("job: reading CSV: %w", err)
	}
	var jobs []*QJob
	var lines []int
	for i, row := range rows {
		if i == 0 && looksLikeHeader(row) {
			continue
		}
		j, err := parseCSVRow(row)
		if err != nil {
			return nil, fmt.Errorf("job: CSV row %d: %w", i+1, err)
		}
		jobs = append(jobs, j)
		lines = append(lines, i+1)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("job: CSV contains no jobs")
	}
	return inArrivalOrder(jobs, lines, "CSV rows")
}

// inArrivalOrder is the step LoadCSV and LoadJSON share: it refuses a
// job_id that two records carry, naming both records by their 1-based
// numbers (lines[k] for jobs[k]), then sorts the jobs by arrival. A run
// keys every lifecycle record by job ID, so a repeated ID would
// otherwise reach records.Manager's duplicate-arrival panic.
func inArrivalOrder(jobs []*QJob, lines []int, what string) ([]*QJob, error) {
	first := make(map[string]int, len(jobs))
	for k, j := range jobs {
		if line, dup := first[j.ID]; dup {
			return nil, fmt.Errorf("job: %s %d and %d both have job_id %q", what, line, lines[k], j.ID)
		}
		first[j.ID] = lines[k]
	}
	SortByArrival(jobs)
	return jobs, nil
}

func looksLikeHeader(row []string) bool {
	if len(row) == 0 {
		return false
	}
	_, err := strconv.Atoi(strings.TrimSpace(row[len(row)-1]))
	if err == nil {
		return false
	}
	// Second field numeric means data row; otherwise treat as header.
	if len(row) > 1 {
		if _, err := strconv.Atoi(strings.TrimSpace(row[1])); err == nil {
			return false
		}
	}
	return true
}

func parseCSVRow(row []string) (*QJob, error) {
	if len(row) < 4 {
		return nil, fmt.Errorf("need at least 4 fields, got %d", len(row))
	}
	get := func(i int) string { return strings.TrimSpace(row[i]) }
	q, err := strconv.Atoi(get(1))
	if err != nil {
		return nil, fmt.Errorf("num_qubits: %w", err)
	}
	d, err := strconv.Atoi(get(2))
	if err != nil {
		return nil, fmt.Errorf("depth: %w", err)
	}
	s, err := strconv.Atoi(get(3))
	if err != nil {
		return nil, fmt.Errorf("num_shots: %w", err)
	}
	j := &QJob{ID: get(0), NumQubits: q, Depth: d, Shots: s}
	if len(row) >= 5 && get(4) != "" {
		arr, err := strconv.ParseFloat(get(4), 64)
		if err != nil {
			return nil, fmt.Errorf("arrival_time: %w", err)
		}
		j.ArrivalTime = arr
	}
	if len(row) >= 6 && get(5) != "" {
		t2, err := strconv.Atoi(get(5))
		if err != nil {
			return nil, fmt.Errorf("two_qubit_gates: %w", err)
		}
		j.TwoQubitGates = t2
	} else {
		j.TwoQubitGates = int(0.25*float64(q*d) + 0.5)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// jobJSON is the JSON workload schema: an array of these objects.
type jobJSON struct {
	ID            string   `json:"job_id"`
	NumQubits     int      `json:"num_qubits"`
	Depth         int      `json:"depth"`
	Shots         int      `json:"num_shots"`
	ArrivalTime   *float64 `json:"arrival_time,omitempty"`
	TwoQubitGates *int     `json:"two_qubit_gates,omitempty"`
	Tenant        string   `json:"tenant,omitempty"`
}

// toJob converts a decoded jobJSON to a validated QJob, applying the
// loader defaults (arrival 0, t2 = round(0.25·q·d)).
func (rj jobJSON) toJob() (*QJob, error) {
	f := jobFields{
		ID:        rj.ID,
		NumQubits: rj.NumQubits,
		Depth:     rj.Depth,
		Shots:     rj.Shots,
		Tenant:    rj.Tenant,
	}
	if rj.ArrivalTime != nil {
		f.ArrivalTime = *rj.ArrivalTime
	}
	if rj.TwoQubitGates != nil {
		f.TwoQubitGates, f.HasTwoQubitGates = *rj.TwoQubitGates, true
	}
	return f.toJob()
}

// jobFields is one decoded jobJSON in value form: an absent (or null)
// arrival_time reads as 0, and a presence flag stands in for the
// two_qubit_gates pointer, so the canonical-line decoder (canonical.go)
// fills one without boxing a number.
type jobFields struct {
	ID               string
	NumQubits        int
	Depth            int
	Shots            int
	ArrivalTime      float64
	TwoQubitGates    int
	HasTwoQubitGates bool
	Tenant           string
}

// toJob converts the record to a validated QJob, applying the loader
// defaults (arrival 0, t2 = round(0.25·q·d)).
func (f *jobFields) toJob() (*QJob, error) {
	j := &QJob{
		ID:            f.ID,
		NumQubits:     f.NumQubits,
		Depth:         f.Depth,
		Shots:         f.Shots,
		TwoQubitGates: f.TwoQubitGates,
		ArrivalTime:   f.ArrivalTime,
		Tenant:        f.Tenant,
	}
	if !f.HasTwoQubitGates {
		j.TwoQubitGates = int(0.25*float64(j.NumQubits*j.Depth) + 0.5)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// LoadJSON reads a deterministic workload from a JSON array. Jobs are
// returned in arrival order.
func LoadJSON(r io.Reader) ([]*QJob, error) {
	var raw []jobJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("job: decoding JSON: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("job: JSON contains no jobs")
	}
	jobs := make([]*QJob, len(raw))
	entries := make([]int, len(raw))
	for i, rj := range raw {
		j, err := rj.toJob()
		if err != nil {
			return nil, fmt.Errorf("job: JSON entry %d: %w", i+1, err)
		}
		jobs[i], entries[i] = j, i+1
	}
	return inArrivalOrder(jobs, entries, "JSON entries")
}

// WriteCSV emits jobs in the loader's CSV schema, including a header.
func WriteCSV(w io.Writer, jobs []*QJob) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job_id", "num_qubits", "depth", "num_shots", "arrival_time", "two_qubit_gates"}); err != nil {
		return err
	}
	for _, j := range jobs {
		rec := []string{
			j.ID,
			strconv.Itoa(j.NumQubits),
			strconv.Itoa(j.Depth),
			strconv.Itoa(j.Shots),
			strconv.FormatFloat(j.ArrivalTime, 'g', -1, 64),
			strconv.Itoa(j.TwoQubitGates),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

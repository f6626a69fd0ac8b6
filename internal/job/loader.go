package job

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"io/fs"
	"strconv"
	"strings"
)

// CSV column layout for deterministic workloads (§3 JobGenerator):
//
//	job_id,num_qubits,depth,num_shots,arrival_time[,two_qubit_gates]
//
// A header row is detected and skipped. arrival_time may be empty, in
// which case 0 is assigned (the paper assigns "the current timestamp";
// deterministic loads start at t=0). two_qubit_gates is optional and
// defaults to round(0.25·q·d).

// LoadCSV reads a deterministic workload from CSV. Jobs are returned in
// arrival order. An error names the line its record starts on, blank
// lines included.
//
// The input is read once. Input without a quote or a carriage return,
// which is what WriteCSV and mkworkload write, is split by hand
// (loadPlainCSV); any other input goes through encoding/csv
// (loadQuotedCSV). On plain input the two read the same records, and
// FuzzLoadCSV holds them to the same jobs or the same error.
func LoadCSV(r io.Reader) ([]*QJob, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("job: reading CSV: %w", err)
	}
	if strings.IndexByte(data, '"') < 0 && strings.IndexByte(data, '\r') < 0 {
		return loadPlainCSV(data)
	}
	return loadQuotedCSV(strings.NewReader(data))
}

// readInput reads r to EOF into one string. A reader that reports its
// size (Len on strings.Reader, bytes.Reader and bytes.Buffer, Stat on a
// regular os.File) gets a string sized once up front, so the read
// allocates the same number of times whatever the input's length.
func readInput(r io.Reader) (string, error) {
	var b strings.Builder
	switch s := r.(type) {
	case interface{ Len() int }:
		b.Grow(s.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()))
		}
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}

// loadPlainCSV reads CSV that holds no quote and no carriage return, so
// every line break ends a record and every comma ends a field: the
// fields are substrings of data, and the jobs share one []QJob block.
func loadPlainCSV(data string) ([]*QJob, error) {
	block := make([]QJob, 0, strings.Count(data, "\n")+1)
	lines := make([]int, 0, cap(block))
	row := make([]string, 0, 8)
	records := 0
	for line, rest := 0, data; rest != ""; {
		line++
		text := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if text == "" {
			continue // encoding/csv skips empty lines
		}
		row = row[:0]
		for {
			i := strings.IndexByte(text, ',')
			if i < 0 {
				row = append(row, text)
				break
			}
			row = append(row, text[:i])
			text = text[i+1:]
		}
		records++
		if records == 1 && looksLikeHeader(row) {
			continue
		}
		block = append(block, QJob{})
		if err := parseCSVRow(&block[len(block)-1], row); err != nil {
			return nil, fmt.Errorf("job: CSV line %d: %w", line, err)
		}
		lines = append(lines, line)
	}
	if len(block) == 0 {
		return nil, fmt.Errorf("job: CSV contains no jobs")
	}
	jobs := make([]*QJob, len(block))
	for i := range block {
		jobs[i] = &block[i]
	}
	return inArrivalOrder(jobs, lines, "CSV lines")
}

// loadQuotedCSV reads any CSV through encoding/csv. Every record is read
// before any is parsed, so a malformed quote anywhere in the input is
// the error reported.
func loadQuotedCSV(r io.Reader) ([]*QJob, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated per row below
	var rows [][]string
	var starts []int
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("job: reading CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		rows, starts = append(rows, row), append(starts, line)
	}
	var jobs []*QJob
	var lines []int
	for i, row := range rows {
		if i == 0 && looksLikeHeader(row) {
			continue
		}
		j := new(QJob)
		if err := parseCSVRow(j, row); err != nil {
			return nil, fmt.Errorf("job: CSV line %d: %w", starts[i], err)
		}
		jobs = append(jobs, j)
		lines = append(lines, starts[i])
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("job: CSV contains no jobs")
	}
	return inArrivalOrder(jobs, lines, "CSV lines")
}

// inArrivalOrder is the step LoadCSV and LoadJSON share: it refuses a
// job_id that two records carry, naming both records by their 1-based
// numbers (lines[k] for jobs[k]), then sorts the jobs by arrival. A run
// keys its live jobs' records by job ID, so a repeated ID would
// otherwise panic as a duplicate arrival while its first job is live,
// or give the workload two rows under one ID.
func inArrivalOrder(jobs []*QJob, lines []int, what string) ([]*QJob, error) {
	if first, k := repeatedID(jobs); k >= 0 {
		return nil, fmt.Errorf("job: %s %d and %d both have job_id %q", what, lines[first], lines[k], jobs[k].ID)
	}
	SortByArrival(jobs)
	return jobs, nil
}

// repeatedID returns the first k whose job_id an earlier job carries,
// and that earlier job's index, or k = -1 when every ID is distinct. It
// probes one open-addressing table of job indices (a Go map allocates
// once per table it splits into as it grows), so the check allocates
// once whatever the workload's size.
func repeatedID(jobs []*QJob) (first, k int) {
	size := 1
	for size < 2*len(jobs) {
		size <<= 1
	}
	slots := make([]int, size) // job index + 1; 0 is an empty slot
	seed := maphash.MakeSeed()
	mask := uint64(size - 1)
	for k, j := range jobs {
		h := maphash.String(seed, j.ID) & mask
		for slots[h] != 0 && jobs[slots[h]-1].ID != j.ID {
			h = (h + 1) & mask
		}
		if slots[h] != 0 {
			return slots[h] - 1, k
		}
		slots[h] = k + 1
	}
	return -1, -1
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

// parseCSVRow fills j from one CSV record and validates it.
func parseCSVRow(j *QJob, row []string) error {
	if len(row) < 4 {
		return fmt.Errorf("need at least 4 fields, got %d", len(row))
	}
	get := func(i int) string { return strings.TrimSpace(row[i]) }
	q, err := strconv.Atoi(get(1))
	if err != nil {
		return fmt.Errorf("num_qubits: %w", err)
	}
	d, err := strconv.Atoi(get(2))
	if err != nil {
		return fmt.Errorf("depth: %w", err)
	}
	s, err := strconv.Atoi(get(3))
	if err != nil {
		return fmt.Errorf("num_shots: %w", err)
	}
	*j = QJob{ID: get(0), NumQubits: q, Depth: d, Shots: s}
	if len(row) >= 5 && get(4) != "" {
		arr, err := strconv.ParseFloat(get(4), 64)
		if err != nil {
			return fmt.Errorf("arrival_time: %w", err)
		}
		j.ArrivalTime = arr
	}
	if len(row) >= 6 && get(5) != "" {
		t2, err := strconv.Atoi(get(5))
		if err != nil {
			return fmt.Errorf("two_qubit_gates: %w", err)
		}
		j.TwoQubitGates = t2
	} else {
		j.TwoQubitGates = int(0.25*float64(q*d) + 0.5)
	}
	return j.Validate()
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

package job

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestStreamDecoderBasic(t *testing.T) {
	in := strings.Join([]string{
		`{"job_id":"a","num_qubits":140,"depth":10,"num_shots":20000,"arrival_time":5}`,
		``, // blank lines are skipped
		`{"job_id":"b","num_qubits":150,"depth":8,"num_shots":30000,"arrival_time":9.5,"tenant":"acme"}`,
	}, "\n")
	d := NewStreamDecoder(strings.NewReader(in))
	a, err := d.Next()
	if err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if a.ID != "a" || a.ArrivalTime != 5 || a.Tenant != "" {
		t.Fatalf("job a = %+v", a)
	}
	// Defaulted t2: round(0.25*140*10).
	if a.TwoQubitGates != 350 {
		t.Fatalf("defaulted t2 = %d, want 350", a.TwoQubitGates)
	}
	b, err := d.Next()
	if err != nil {
		t.Fatalf("second Next: %v", err)
	}
	if b.ID != "b" || b.Tenant != "acme" {
		t.Fatalf("job b = %+v", b)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestStreamDecoderStampsIngest(t *testing.T) {
	in := strings.Join([]string{
		`{"job_id":"a","num_qubits":140,"depth":10,"num_shots":20000}`,
		`{"job_id":"b","num_qubits":150,"depth":8,"num_shots":30000}`,
	}, "\n")
	d := NewStreamDecoder(strings.NewReader(in))
	d.SetSource("tcp", "10.0.0.7:51234", 3)
	for _, want := range []string{"a", "b"} {
		j, err := d.Next()
		if err != nil {
			t.Fatalf("Next(%s): %v", want, err)
		}
		if j.ID != want {
			t.Fatalf("job ID = %q, want %q", j.ID, want)
		}
		if j.Ingest != (Ingest{Source: "tcp", Remote: "10.0.0.7:51234", ConnID: 3}) {
			t.Fatalf("job %s ingest = %+v", j.ID, j.Ingest)
		}
	}
	// Without SetSource the provenance stays zero, so batch-converted
	// streams keep producing jobs identical to the loader's.
	d2 := NewStreamDecoder(strings.NewReader(in))
	j, err := d2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if j.Ingest != (Ingest{}) {
		t.Fatalf("unstamped ingest = %+v, want zero", j.Ingest)
	}
	// Provenance is server-side only: a job line carrying its own
	// "ingest" key is an unknown field.
	d3 := NewStreamDecoder(strings.NewReader(
		`{"job_id":"a","num_qubits":140,"depth":10,"num_shots":1,"ingest":{}}`))
	if _, err := d3.Next(); err == nil {
		t.Fatal("expected unknown-field error for client-supplied ingest")
	}
}

func TestStreamDecoderErrors(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"bad json", `{"job_id":`},
		{"unknown field", `{"job_id":"a","num_qubits":140,"depth":10,"num_shots":1,"bogus":1}`},
		{"invalid job", `{"job_id":"","num_qubits":140,"depth":10,"num_shots":1}`},
		{"negative arrival", `{"job_id":"a","num_qubits":140,"depth":10,"num_shots":1,"arrival_time":-2}`},
	}
	for _, c := range cases {
		d := NewStreamDecoder(strings.NewReader(c.line))
		if _, err := d.Next(); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q lacks line number", c.name, err)
		}
	}
}

func TestStreamDecoderTruncation(t *testing.T) {
	complete := `{"job_id":"a","num_qubits":140,"depth":10,"num_shots":20000}`

	// A final complete record without a trailing newline is a clean end
	// (the HTTP submit path posts bodies exactly like this).
	d := NewStreamDecoder(strings.NewReader(complete))
	if _, err := d.Next(); err != nil {
		t.Fatalf("unterminated complete record: %v", err)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end after unterminated record = %v, want io.EOF", err)
	}

	// A stream cut mid-record must not be a clean EOF: the tail job
	// would silently vanish.
	cut := complete + "\n" + complete[:30]
	d = NewStreamDecoder(strings.NewReader(cut))
	if _, err := d.Next(); err != nil {
		t.Fatalf("first record before the cut: %v", err)
	}
	_, err := d.Next()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-record cut = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("truncation error %q lacks the line number", err)
	}

	// A stream ending at a line boundary stays a clean EOF.
	d = NewStreamDecoder(strings.NewReader(complete + "\n"))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("newline-terminated end = %v, want io.EOF", err)
	}
}

func TestStreamDecoderErrorsCarrySource(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader(`{"job_id":` + "\n"))
	d.SetSource("tcp", "10.0.0.7:51234", 3)
	_, err := d.Next()
	if err == nil {
		t.Fatal("expected decode error")
	}
	for _, want := range []string{"tcp", "10.0.0.7:51234", "conn 3", "line 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestDecodeLine(t *testing.T) {
	j, err := DecodeLine([]byte(`{"job_id":"a","num_qubits":140,"depth":10,"num_shots":20000}`))
	if err != nil {
		t.Fatalf("DecodeLine: %v", err)
	}
	if j.ID != "a" || j.TwoQubitGates != 350 {
		t.Fatalf("job = %+v, want defaults applied", j)
	}
	if _, err := DecodeLine([]byte(`{"job_id":"","num_qubits":1,"depth":1,"num_shots":1}`)); err == nil {
		t.Fatal("invalid job decoded")
	}
}

// A second JSON value, or any other content, after the job object on
// one line is refused on every ingest path rather than silently
// dropped; trailing white space is not content.
func TestDecodeLineRejectsTrailingContent(t *testing.T) {
	const valid = `{"job_id":"job-0000000","num_qubits":140,"depth":10,"num_shots":20000}`
	for _, tail := range []string{` {"job_id":"ghost"}`, `{"job_id":"ghost","num_qubits":140,"depth":10,"num_shots":20000}`, `,`, ` x`, `]`, "\t1"} {
		if _, err := DecodeLine([]byte(valid + tail)); err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("DecodeLine with trailing %q: error %v", tail, err)
		}
		d := NewStreamDecoder(strings.NewReader(valid + tail + "\n" + valid + "\n"))
		if j, err := d.Next(); err == nil || !strings.Contains(err.Error(), "stream line 1") {
			t.Errorf("stream with trailing %q on line 1: job %v, error %v", tail, j, err)
		}
	}
	for _, ws := range []string{" ", "\t", " \r"} {
		if _, err := DecodeLine([]byte(valid + ws)); err != nil {
			t.Errorf("trailing white space %q refused: %v", ws, err)
		}
	}
}

// The NDJSON round trip must reproduce the batch loader's jobs exactly:
// the serve-smoke gate feeds the same workload to the batch runner (JSON
// array) and the broker (NDJSON) and expects identical records.
func TestNDJSONRoundTripMatchesLoadJSON(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.N = 25
	jobs, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs[3].Tenant = "acme"

	var arrayBuf, ndBuf bytes.Buffer
	if err := WriteJSON(&arrayBuf, jobs); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&ndBuf, jobs); err != nil {
		t.Fatal(err)
	}
	fromArray, err := LoadJSON(&arrayBuf)
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(&ndBuf)
	var fromStream []*QJob
	for {
		j, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fromStream = append(fromStream, j)
	}
	if len(fromArray) != len(fromStream) {
		t.Fatalf("array %d jobs vs stream %d", len(fromArray), len(fromStream))
	}
	for i := range fromArray {
		if *fromArray[i] != *fromStream[i] {
			t.Fatalf("job %d: %+v vs %+v", i, fromArray[i], fromStream[i])
		}
	}
}

// A canonical line (WriteNDJSON's bytes) decodes without a decoder, a
// reader or a boxed number: the only allocations are the QJob, its ID
// and, when the line names one, its tenant.
func TestDecodeRecordAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, []*QJob{
		{ID: "job-0000000", NumQubits: 167, Depth: 20, Shots: 22302, TwoQubitGates: 835, ArrivalTime: 12.466542457635619},
		{ID: "job-0000001", NumQubits: 140, Depth: 10, Shots: 20000, TwoQubitGates: 350, ArrivalTime: 1e-7, Tenant: "alpha"},
	}); err != nil {
		t.Fatal(err)
	}
	written := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	for _, tc := range []struct {
		line   []byte
		allocs float64
	}{
		{[]byte(`{"job_id":"job-0000002","num_qubits":167,"depth":20,"num_shots":22302}`), 2},
		{written[0], 2},
		{written[1], 3},
	} {
		got := testing.AllocsPerRun(100, func() {
			if j, err := DecodeRecord(tc.line, true); err != nil || j == nil {
				t.Fatalf("line %s: job %v, error %v", tc.line, j, err)
			}
		})
		if got != tc.allocs {
			t.Errorf("line %s: %v allocs, want %v", tc.line, got, tc.allocs)
		}
	}
}

// Lines that span the reader's buffer refills come back whole, between
// and after short lines, with or without a final newline.
func TestLineReaderSpansRefills(t *testing.T) {
	want := []string{"a", strings.Repeat("b", 70000), "c\r", strings.Repeat("d", 200000), "", strings.Repeat("e", 65536)}
	lr := NewLineReader(strings.NewReader(strings.Join(want, "\n")))
	for i, w := range want {
		line, terminated, err := lr.Next()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		w = strings.TrimSuffix(w, "\r")
		if string(line) != w || terminated != (i < len(want)-1) {
			t.Fatalf("line %d: %d bytes (terminated %v), want %d", i, len(line), terminated, len(w))
		}
	}
	if _, _, err := lr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last line: %v, want io.EOF", err)
	}
}

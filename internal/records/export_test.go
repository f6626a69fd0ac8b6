package records

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/job"
)

func TestWriteCSVContent(t *testing.T) {
	m := recordAll(t, run(&job.QJob{ID: "j1"}, 0, 5, 25, 0.75, 3.8, "ibm_quebec", "ibm_kyiv"))

	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "job_id" {
		t.Fatalf("header = %v", rows[0])
	}
	r := rows[1]
	if r[0] != "j1" || r[4] != "5" || r[7] != "0.75" || r[9] != "2" {
		t.Fatalf("row = %v", r)
	}
	if r[10] != "ibm_quebec+ibm_kyiv" {
		t.Fatalf("device names = %q", r[10])
	}
}

func TestWriteCSVEmptyManager(t *testing.T) {
	var buf bytes.Buffer
	if err := NewManager().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("expected header only, got %q", buf.String())
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFormatKeepsExistingFile: a refused -format leaves an
// existing -out file as it was.
func TestUnknownFormatKeepsExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.csv")
	const before = "job_id,num_qubits\nkeep,130\n"
	if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-format", "xml", "-out", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown -format "xml"`) {
		t.Fatalf("run: %v, want the unknown format refused", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != before {
		t.Fatalf("-out file now holds %q, want %q", got, before)
	}
}

// TestWritesEachFormat: every format writes the requested jobs.
func TestWritesEachFormat(t *testing.T) {
	for format, lines := range map[string]int{"csv": 4, "ndjson": 3} {
		var out strings.Builder
		if err := run([]string{"-n", "3", "-format", format}, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got := strings.Count(out.String(), "\n"); got != lines {
			t.Errorf("%s: %d lines, want %d:\n%s", format, got, lines, out.String())
		}
	}
}

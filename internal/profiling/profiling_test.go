package profiling

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckPath(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		wantErr string // empty = accept
	}{
		{"", ""},
		{filepath.Join(dir, "cpu.prof"), ""},
		{file, ""}, // overwritten, like any output file
		{dir, "is a directory"},
		{filepath.Join(dir, "missing", "cpu.prof"), "no such file"},
		{filepath.Join(file, "cpu.prof"), "not a directory"},
	} {
		err := CheckPath("cpuprofile", c.path)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%q: unexpected error %v", c.path, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), "-cpuprofile")):
			t.Errorf("%q: error %v, want one naming -cpuprofile and %q", c.path, err, c.wantErr)
		}
	}
}

// Both profiles land where asked and are non-empty pprof files; with
// empty paths stop is a no-op.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
	if stop, err = Start("", ""); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

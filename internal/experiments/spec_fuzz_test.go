package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadSpec feeds arbitrary bytes to the spec loader. Spec files are
// untrusted input to the experiments CLI, so LoadSpec must never panic,
// and any spec it accepts must be a fixed point of the file format:
// WriteJSON → LoadSpec → WriteJSON reproduces the same bytes. Bytes,
// not values, are compared: an empty list ("modes": []) decodes to a
// non-nil slice but re-encodes as absent, so the first WriteJSON is the
// canonical form.
//
// The seed corpus is every committed spec under specs/ (chaos-*.json
// files are fault plans, not specs) plus a replication count that once
// panicked with an out-of-range seed-list allocation.
func FuzzLoadSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasPrefix(filepath.Base(path), "chaos-") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"matrices":[{"kind":"modes"}],"replications":100000000000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := spec.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted spec: %v", err)
		}
		again, err := LoadSpec(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-loading a written spec: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("WriteJSON of a re-loaded spec: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("spec is not a fixed point of WriteJSON→LoadSpec→WriteJSON:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

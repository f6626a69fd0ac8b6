package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadConfig feeds arbitrary bytes to the -config loader. Loading
// and validation must never panic, and, since they build no device,
// must stay cheap whatever sizes a file claims. Every accepted file is
// a fixed point of encode → load.
func FuzzLoadConfig(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, "../../examples/configdriven/spec.json") {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"devices": [{"name": "x", "num_qubits": 1099511627776, "clops": 1, "topology": "complete",
	  "calibration": {"median_readout": 1, "median_1q": 1, "median_2q": 1, "seed": 0}}],
	  "workload": {"source": "synthetic", "synthetic": {"n": 1000000000}},
	  "policy": "speed", "model": {"m": 1, "k": 1, "phi": 1, "lambda": 0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := loadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("encoding an accepted config: %v", err)
		}
		c2, err := loadConfig(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded config refused: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("config changed across encode → load:\n%+v\n%+v", c, c2)
		}
	})
}

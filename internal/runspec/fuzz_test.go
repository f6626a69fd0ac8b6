package runspec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadConfig feeds arbitrary bytes to the -config loader, for a
// batch run and for -serve. It is seeded from qcloudsim's committed
// -config files and the config-driven example. Loading and validation must never panic,
// and, since they build no device, must stay cheap whatever sizes a
// file claims. Every accepted file is a fixed point of encode → load.
func FuzzLoadConfig(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/qcloudsim/testdata/*.json")
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
		for _, serve := range []bool{false, true} {
			c, err := Load(bytes.NewReader(data), serve)
			if err != nil {
				continue
			}
			again, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("encoding an accepted config: %v", err)
			}
			c2, err := Load(bytes.NewReader(again), serve)
			if err != nil {
				t.Fatalf("re-encoded config refused (serve %v): %v\n%s", serve, err, again)
			}
			if !reflect.DeepEqual(c, c2) {
				t.Fatalf("config changed across encode → load (serve %v):\n%+v\n%+v", serve, c, c2)
			}
		}
	})
}

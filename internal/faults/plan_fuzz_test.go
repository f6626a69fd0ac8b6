package faults

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParsePlan feeds arbitrary bytes to the fault-plan loader. Plans
// are untrusted input to qcloudsim -fault-plan, so ParsePlan must never
// panic, every plan it accepts must compile with NewInjector, and an
// accepted plan must survive json.Marshal → ParsePlan unchanged.
//
// The seed corpus is every committed fault plan under specs/
// (chaos-*.json) plus the inputs ParsePlan once accepted wrongly: a
// second plan after the first, trailing garbage, and a delay_ms that
// overflowed time.Duration into a negative delay — and an empty
// targets list, which must parse to the same plan as an absent one.
func FuzzParsePlan(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "chaos-*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no specs/chaos-*.json fault plans to seed from")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":1,"rules":[]} {"seed":2,"rules":[{"layer":"ingest","op":"line","kind":"garble"}]}`))
	f.Add([]byte(`{"seed":1,"rules":[]} garbage`))
	f.Add([]byte(`{"seed":1,"rules":[{"layer":"http","op":"request","kind":"delay","delay_ms":1e300}]}`))
	f.Add([]byte(`{"seed":1,"rules":[{"layer":"http","op":"request","kind":"error","targets":[]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := NewInjector(p); err != nil {
			t.Fatalf("accepted plan does not compile: %v\n%s", err, data)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("json.Marshal of an accepted plan: %v", err)
		}
		again, err := ParsePlan(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-parsing a marshalled plan: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("plan changed across json.Marshal → ParsePlan:\n%#v\n%#v", p, again)
		}
	})
}

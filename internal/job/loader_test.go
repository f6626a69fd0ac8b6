package job

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzLoadCSV reads arbitrary bytes as a batch workload. LoadCSV must
// never panic, and every job it accepts is valid and in arrival order.
// The check is differential: on input without a quote or a carriage
// return, the hand-split path (loadPlainCSV) and the encoding/csv path
// (loadQuotedCSV) must return the same jobs, field by field and in the
// same order, or the same error text.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := LoadCSV(bytes.NewReader(data))
		if err == nil {
			for k, j := range jobs {
				if verr := j.Validate(); verr != nil {
					t.Fatalf("accepted job %+v is invalid: %v", j, verr)
				}
				if k > 0 && j.ArrivalTime < jobs[k-1].ArrivalTime {
					t.Fatalf("job %s arrives before job %s, which precedes it", j.ID, jobs[k-1].ID)
				}
			}
		}
		src := string(data)
		if strings.ContainsAny(src, "\"\r") {
			return
		}
		fast, ferr := loadPlainCSV(src)
		ref, rerr := loadQuotedCSV(strings.NewReader(src))
		if ferr != nil || rerr != nil {
			if ferr == nil || rerr == nil || ferr.Error() != rerr.Error() {
				t.Fatalf("input %q: plain error %v, encoding/csv error %v", src, ferr, rerr)
			}
			return
		}
		if len(fast) != len(ref) {
			t.Fatalf("input %q: plain read %d jobs, encoding/csv %d", src, len(fast), len(ref))
		}
		for k := range fast {
			if d := jobDiff(fast[k], ref[k]); d != "" {
				t.Fatalf("input %q: job %d differs: %s", src, k, d)
			}
		}
	})
}

// jobDiff names the first field in which a and b differ, or returns "".
// Floats compare by bits, so a NaN arrival equals itself.
func jobDiff(a, b *QJob) string {
	switch {
	case a.ID != b.ID:
		return fmt.Sprintf("ID %q vs %q", a.ID, b.ID)
	case a.NumQubits != b.NumQubits:
		return fmt.Sprintf("NumQubits %d vs %d", a.NumQubits, b.NumQubits)
	case a.Depth != b.Depth:
		return fmt.Sprintf("Depth %d vs %d", a.Depth, b.Depth)
	case a.Shots != b.Shots:
		return fmt.Sprintf("Shots %d vs %d", a.Shots, b.Shots)
	case a.TwoQubitGates != b.TwoQubitGates:
		return fmt.Sprintf("TwoQubitGates %d vs %d", a.TwoQubitGates, b.TwoQubitGates)
	case math.Float64bits(a.ArrivalTime) != math.Float64bits(b.ArrivalTime):
		return fmt.Sprintf("ArrivalTime %g vs %g", a.ArrivalTime, b.ArrivalTime)
	case a.Tenant != b.Tenant:
		return fmt.Sprintf("Tenant %q vs %q", a.Tenant, b.Tenant)
	case a.Ingest != b.Ingest:
		return fmt.Sprintf("Ingest %+v vs %+v", a.Ingest, b.Ingest)
	}
	return ""
}

// plainRows renders n table2-shaped jobs in the loader's CSV schema,
// header included.
func plainRows(n int) string {
	var b strings.Builder
	b.WriteString("job_id,num_qubits,depth,num_shots,arrival_time,two_qubit_gates\n")
	for i := 0; i < n; i++ {
		q, d := 130+i%121, 5+i%16
		fmt.Fprintf(&b, "job-%07d,%d,%d,%d,%g,%d\n", i, q, d, 10000+i*37%90001, float64(i)*0.37, (q*d+2)/4)
	}
	return b.String()
}

// TestLoadCSVAllocsFlat: a plain workload loads in a fixed number of
// allocations, whatever its length. The jobs share one block, the
// fields share the input string, and the repeated-ID check probes one
// table.
func TestLoadCSVAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		src := plainRows(n)
		return testing.AllocsPerRun(5, func() {
			if jobs, err := LoadCSV(strings.NewReader(src)); err != nil || len(jobs) != n {
				t.Fatalf("%d rows: %d jobs, error %v", n, len(jobs), err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("LoadCSV allocations: %v for 1k rows, %v for 8k rows", small, large)
	if small != large {
		t.Errorf("LoadCSV allocates %v times for 1k rows and %v for 8k: the count grows with the input", small, large)
	}
}

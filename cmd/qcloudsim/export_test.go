package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"repro/internal/runspec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
)

// TestServeExportRefusedRetry: a job refused by admission control leaves
// no export record, so refusing the same ID twice (what qsubmit produces
// when it retries a 429 with the same ID) does not crash the broker, and
// -export does not change the lifecycle stream. A refused ID admitted
// later gets its row at its admission position, after a job admitted
// between its refusals.
func TestServeExportRefusedRetry(t *testing.T) {
	const stream = `{"job_id":"a","num_qubits":300,"depth":10,"num_shots":100000,"arrival_time":0,"tenant":"acme"}
{"job_id":"b","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":1,"tenant":"acme"}
{"job_id":"c","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":2,"tenant":"zeta"}
{"job_id":"b","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":3,"tenant":"acme"}
{"job_id":"b","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":5000,"tenant":"acme"}
`
	opts := serveOptions{
		run:    runspec.Run{Policy: "fair", FleetSeed: 2025, Model: core.DefaultConfig()},
		window: 64,
		admit:  core.AdmissionConfig{Policy: core.AdmitQuota, TenantQuota: 1},
	}
	var plain, errOut bytes.Buffer
	if err := runServe(context.Background(), opts, strings.NewReader(stream), &plain, &errOut); err != nil {
		t.Fatalf("without -export: %v", err)
	}
	opts.export = filepath.Join(t.TempDir(), "export.csv")
	var exported bytes.Buffer
	if err := runServe(context.Background(), opts, strings.NewReader(stream), &exported, &errOut); err != nil {
		t.Fatalf("with -export: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), exported.Bytes()) {
		t.Fatalf("-export changed stdout:\nwithout:\n%s\nwith:\n%s", plain.Bytes(), exported.Bytes())
	}
	if n := strings.Count(plain.String(), `"event":"drop","job_id":"b"`); n != 2 {
		t.Fatalf("%d refusals of b, want 2:\n%s", n, plain.Bytes())
	}
	data, err := os.ReadFile(opts.export)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		f := strings.Split(line, ",")
		rows = append(rows, f[0]+"@"+f[1])
	}
	if got := fmt.Sprint(rows); got != "[a@0 c@2 b@5000]" {
		t.Fatalf("export rows (id@arrival) = %s, want [a@0 c@2 b@5000]", got)
	}
}

// BenchmarkServeExport is the in-process -serve rung: runServe in
// logical time over 20k canonical NDJSON jobs (mkworkload's shape at
// seed 1, -interarrival 400, -policy fair), with and without -export
// into a temp dir. Stdout is a pipe that a goroutine drains, so each
// lifecycle write costs the system call it costs qcloudsim. One op is
// one whole run; jobs/s and allocs/job are per streamed job.
func BenchmarkServeExport(b *testing.B) {
	const n = 20000
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.MeanInterarrival = 400
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		b.Fatal(err)
	}
	for _, export := range []bool{false, true} {
		name := "plain"
		if export {
			name = "export"
		}
		b.Run(name, func(b *testing.B) {
			opts := serveOptions{
				run:    runspec.Run{Policy: "fair", FleetSeed: 2025, Model: core.DefaultConfig()},
				window: 512, // qcloudsim's -window default
			}
			if export {
				opts.export = filepath.Join(b.TempDir(), "export.csv")
			}
			r, w, err := os.Pipe()
			if err != nil {
				b.Fatal(err)
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				io.Copy(io.Discard, r) //lint:allow errlint the drain ends when the write end closes; a read error only ends it sooner
			}()
			defer func() {
				w.Close()
				<-drained
				r.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := runServe(context.Background(), opts, bytes.NewReader(stream.Bytes()), w, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * n
			b.ReportMetric(total/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/job")
		})
	}
}

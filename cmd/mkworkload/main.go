// Command mkworkload generates a synthetic large-circuit workload (the
// §7 distribution) and writes it as CSV for deterministic replay through
// qcloudsim -jobs or the Configurations Layer.
//
// Example:
//
//	mkworkload -n 1000 -seed 7 -out workload.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/job"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mkworkload:", err)
		os.Exit(1)
	}
}

// writers maps each -format to its encoder.
var writers = map[string]func(io.Writer, []*job.QJob) error{
	"csv":    job.WriteCSV,
	"json":   job.WriteJSON,
	"ndjson": job.WriteNDJSON,
}

// run parses args (a bad flag exits 2, as the flag package does) and
// writes the workload to -out, or to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mkworkload", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n            = fs.Int("n", 1000, "number of jobs")
		minQ         = fs.Int("min-qubits", 130, "minimum qubits per job")
		maxQ         = fs.Int("max-qubits", 250, "maximum qubits per job")
		minD         = fs.Int("min-depth", 5, "minimum circuit depth")
		maxD         = fs.Int("max-depth", 20, "maximum circuit depth")
		minS         = fs.Int("min-shots", 10000, "minimum shots")
		maxS         = fs.Int("max-shots", 100000, "maximum shots")
		t2f          = fs.Float64("t2-factor", 0.25, "two-qubit gates per qubit-layer slot")
		interarrival = fs.Float64("interarrival", 60, "mean inter-arrival time (s); 0 = all at t=0")
		seed         = fs.Int64("seed", 1, "generator seed")
		out          = fs.String("out", "", "output path (default stdout)")
		format       = fs.String("format", "csv", "output format: csv|json|ndjson (ndjson is the qcloudsim -serve ingest format)")
	)
	fs.Parse(args) //lint:allow errlint ExitOnError: Parse exits instead of returning an error
	write, ok := writers[*format]
	if !ok {
		return fmt.Errorf("unknown -format %q (want csv|json|ndjson)", *format)
	}

	cfg := job.SyntheticConfig{
		N:         *n,
		MinQubits: *minQ, MaxQubits: *maxQ,
		MinDepth: *minD, MaxDepth: *maxD,
		MinShots: *minS, MaxShots: *maxS,
		T2Factor:         *t2f,
		MeanInterarrival: *interarrival,
		Seed:             *seed,
	}
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		return err
	}
	w := stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	if err := write(w, jobs); err != nil {
		if outFile != nil {
			outFile.Close() //lint:allow errlint the write error above is the one to report; close is failure-path cleanup
		}
		return err
	}
	if outFile != nil {
		// A buffered close failure loses rows: check it before announcing.
		if err := outFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d jobs to %s\n", len(jobs), *out) //lint:allow errlint the workload is written; the note on stderr is informational
	}
	return nil
}

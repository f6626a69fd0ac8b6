package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Workload sizes. Jobs follow the paper's synthetic distribution on the
// standard five-Eagle fleet with the default M, K, φ and λ; the benchmark
// writes the job files itself, so no -n or -interarrival flag is used.
const (
	table2Jobs   = 20_000  // arrivals outpace the fleet: the FIFO queue grows to near N
	backfillJobs = 1_500   // skip-ahead dispatch rescans the backlog: cost grows as N²
	serveJobs    = 100_000 // a busy fleet with a short queue
	batchGapS    = 60      // the paper's mean inter-arrival, s
	serveGapS    = 400

	trainSteps = 8192 // small fixed rlbase training budget (set-up of table2-batch)
	trainRuns  = 3
	setupRuns  = 21 // spawn-to-ready samples per run; the median is reported
	fleetSeed  = 2025
	trainSeed  = 1
)

var (
	table2Policies   = []string{"speed", "fidelity", "fair", "rlbase"}
	backfillPolicies = []string{"speed", "fidelity"}
)

// procResult is one finished simulator process.
type procResult struct {
	wall        time.Duration // spawn → exit
	cpu         time.Duration // user + system CPU time
	rssMB       float64
	stdoutBytes int64
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func rssMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// cpuTime is a finished process's user plus system CPU time. Unlike wall
// time it leaves out the time the process waited for a CPU, which on a
// shared host includes time the hypervisor steals.
func cpuTime(ps *os.ProcessState) time.Duration {
	return ps.UserTime() + ps.SystemTime()
}

func tail(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = "..." + s[len(s)-400:]
	}
	return s
}

// runBin runs one of the built binaries to completion.
func (b *bench) runBin(name string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(b.ctx, b.bin(name), args...)
	var out countingWriter
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return procResult{}, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.Bytes()))
	}
	return procResult{wall: wall, cpu: cpuTime(cmd.ProcessState), rssMB: rssMB(cmd.ProcessState), stdoutBytes: out.n}, nil
}

// train runs ppotrain runs times with the fixed seed and budget. The
// models must be byte-identical; the set-up time is each run's CPU time.
func (b *bench) train(runs int) (string, []float64, error) {
	var first []byte
	var setups []float64
	for i := 0; i < runs; i++ {
		path := b.path(fmt.Sprintf("model-%d.json", i))
		r, err := b.runBin("ppotrain", "-timesteps", strconv.Itoa(trainSteps), "-seed", strconv.Itoa(trainSeed), "-q", "-out", path)
		if err != nil {
			return "", nil, err
		}
		setups = append(setups, r.cpu.Seconds())
		data, err := os.ReadFile(path)
		if err != nil {
			return "", nil, err
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			return "", nil, fmt.Errorf("ppotrain with a fixed seed wrote different models")
		}
	}
	return b.path("model-0.json"), setups, nil
}

// Command perfbench is the repository benchmark. It runs one named
// workload against the real binaries (qcloudsim, ppotrain) built from the
// tree, checks that the simulated outputs are correct, and prints every
// end-to-end metric listed in BENCHMARK.json. With -trace 1 it instead
// runs the workload's traced in-process twin and prints the per-layer
// metrics. Every input is generated from -seed. See README.md.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table2-batch --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// deadline bounds a whole run; the contract allows 180 s.
const deadline = 170 * time.Second

// workload is one named traffic mix: run measures the binaries, trace
// runs the traced in-process twin.
type workload struct {
	run, trace func(*bench) error
}

var workloads = map[string]workload{
	"table2-batch":     {runTable2, traceTable2},
	"backfill-backlog": {runBackfill, traceBackfill},
	"serve-stream":     {runServe, traceServe},
	"http-mixed":       {runHTTP, traceHTTP},
}

// bench is one benchmark run.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	binDir   string
	dir      string // scratch for this run, removed at exit
	traceDir string

	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func (b *bench) bin(name string) string  { return filepath.Join(b.binDir, name) }
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// op records one operation (a simulator run, a streamed job or an HTTP
// request) and, when err is set, its failure.
func (b *bench) op(err error) {
	b.ops(1, err, 1)
}

// ops records n operations of which failed failed with err.
func (b *bench) ops(n int, err error, failed int) {
	b.attempted += n
	if err != nil {
		b.failed += failed
		b.problem(err)
	}
}

func (b *bench) problem(err error) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, err.Error())
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and reports whether every correctness
// check passed. An error means no result was printed.
func run() (bool, error) {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", defaultSeed, "input generator seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced in-process twin and reports per-layer metrics")
		binDir  = flag.String("bin", "", "directory holding the built qcloudsim and ppotrain")
		work    = flag.String("work", ".bench_build/perfbench", "scratch directory")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return false, fmt.Errorf("unknown -workload %q (have %v)", *name, names)
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, have %d", *trace)
	}
	if *seconds < 0 {
		return false, fmt.Errorf("-seconds must be >= 0, have %d", *seconds)
	}
	if *binDir == "" {
		return false, fmt.Errorf("-bin is required")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	// The open-loop client shares the machine with the server: never use
	// more OS threads than there are CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	traceDir := filepath.Join(*work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return false, err
	}
	b := &bench{
		ctx: ctx, workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		binDir: *binDir, dir: dir, traceDir: traceDir, metrics: map[string]float64{},
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
		err = w.trace(b)
	} else {
		err = w.run(b)
	}
	if err != nil {
		return false, err
	}
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok {
			if *trace == 0 {
				return false, fmt.Errorf("workload %s did not measure %s", *name, m.Name)
			}
			// A layer this workload does not exercise reports zero.
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-32s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

func loadSpec(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

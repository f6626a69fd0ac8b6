// Command qcloudsim runs one quantum-cloud scheduling simulation: it
// builds the standard five-device cloud, loads or generates a workload,
// applies the chosen allocation policy, and prints the Table 2 metrics
// plus per-device load shares. A -config JSON file (the paper's
// Configurations Layer; see docs/operations.md) describes the fleet,
// workload, policy and model constants instead of the flags; both are
// assembled by the same code.
//
// With -serve it instead runs as a long-lived broker service over the
// same fleet, policy and model (flags, or a -config file without its
// workload block): jobs arrive as line-delimited JSON (stdin, or TCP
// with -listen), enter the live discrete-event core as they arrive, and
// lifecycle records stream to stdout while rolling-window metrics
// stream to stderr. See docs/operations.md, "Broker mode".
//
// Examples:
//
//	qcloudsim -policy speed -n 200
//	qcloudsim -policy fidelity -jobs workload.csv
//	qcloudsim -policy rlbase -rlmodel policy.json -n 100
//	qcloudsim -config examples/configdriven/spec.json -export records.csv
//	qcloudsim -serve -policy speed < jobs.ndjson
//	qcloudsim -serve -listen 127.0.0.1:9066 -time-scale 100
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// exitCrash is the exit status of a run stopped by an injected crash
// (a fault plan's ingest/line/crash rule), so a driver can tell it from
// a failure.
const exitCrash = 3

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "qcloudsim:", err)
		if errors.Is(err, errCrash) {
			os.Exit(exitCrash)
		}
		os.Exit(1)
	}
}

// options is one qcloudsim invocation: fs, the command line it was
// parsed from, and every flag's value. serveOptions holds the cloud,
// broker settings and export path, which a batch run reads its cloud
// and export from too.
type options struct {
	fs *flag.FlagSet
	serveOptions
	configPath, jobsPath, faultPlan, cpuProfile, memProfile string
	synth                                                   job.SyntheticConfig
	serve, verbose                                          bool
}

// parseArgs defines every flag once, bound straight into options,
// parses args and validates the combination: the one parse main and
// the tests share. A bad flag exits 2 after printing the usage to
// stderr, as the flag package does (-h exits 0).
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("qcloudsim", flag.ExitOnError)
	o := &options{fs: fs, synth: job.DefaultSyntheticConfig()}
	fs.StringVar(&o.configPath, "config", "", "JSON run spec: fleet, policy, model and (batch only) workload (Configurations Layer; replaces their flags)")
	fs.StringVar(&o.run.Policy, "policy", "speed", "allocation policy: "+strings.Join(policy.Names(), "|"))
	fs.StringVar(&o.jobsPath, "jobs", "", "CSV or JSON workload file (default: synthetic)")
	fs.IntVar(&o.synth.N, "n", 1000, "synthetic workload size")
	fs.Int64Var(&o.synth.Seed, "seed", 1, "synthetic workload and drift-walk seed")
	fs.Int64Var(&o.run.FleetSeed, "fleet-seed", 2025, "calibration snapshot seed")
	fs.Float64Var(&o.synth.MeanInterarrival, "interarrival", 60, "mean inter-arrival time (s)")
	fs.IntVar(&o.run.Model.M, "m", 10, "Eq.3 circuit-template constant M")
	fs.IntVar(&o.run.Model.K, "k", 10, "Eq.3 parameter-update constant K")
	fs.Float64Var(&o.run.Model.Phi, "phi", 0.95, "Eq.8 per-link fidelity penalty")
	fs.Float64Var(&o.run.Model.Lambda, "lambda", 0.02, "Eq.9 per-qubit comm latency (s)")
	fs.StringVar(&o.run.RLModelPath, "rlmodel", "", "trained policy JSON (required for -policy rlbase)")
	fs.Int64Var(&o.run.RLSeed, "rlseed", 7, "deployment sampling seed for rlbase")
	fs.BoolVar(&o.run.Model.Backfill, "backfill", false, "enable EASY-style backfill dispatch")
	fs.Float64Var(&o.run.Model.Drift.IntervalS, "drift-interval", 0, "recalibration interval in s (0 = static calibration)")
	fs.Float64Var(&o.run.Model.Drift.Rel, "drift-magnitude", 0.2, "relative calibration drift per recalibration")
	fs.StringVar(&o.export, "export", "", "write per-job records CSV to this path")
	fs.BoolVar(&o.verbose, "v", false, "print per-job records")

	fs.BoolVar(&o.serve, "serve", false, "run as a broker service ingesting line-delimited JSON jobs")
	fs.StringVar(&o.listen, "listen", "", "broker TCP listen address host:port (default: read stdin)")
	fs.StringVar(&o.httpAddr, "http", "", "HTTP control-plane listen address host:port (submit/status/metrics API)")
	fs.StringVar((*string)(&o.admit.Policy), "admit-policy", "", "admission control: reject|shed|quota (default: admit everything)")
	fs.IntVar(&o.admit.MaxQueue, "admit-max-queue", 0, "queue-depth bound for -admit-policy reject|shed")
	fs.IntVar(&o.admit.TenantQuota, "admit-tenant-quota", 0, "per-tenant in-flight job bound for -admit-policy quota")
	fs.Float64Var(&o.admit.RetryAfterS, "admit-retry-after", 30, "Retry-After seconds advertised on refused submissions")
	fs.Float64Var(&o.admit.RatePerS, "admit-rate", 0, "per-tenant token-bucket admission rate (jobs per simulated second; 0 = unlimited)")
	fs.Float64Var(&o.admit.Burst, "admit-burst", 1, "token-bucket burst capacity for -admit-rate")
	fs.Float64Var(&o.timeScale, "time-scale", 0, "sim seconds per wall second (0 = logical time, deterministic)")
	fs.IntVar(&o.window, "window", 512, "rolling metrics window capacity (completions per tenant)")
	fs.Float64Var(&o.metricsEvery, "metrics-every", 0, "emit a metrics line every N sim seconds (0 = final only)")
	fs.StringVar(&o.checkpointPath, "checkpoint", "", "broker checkpoint file")
	fs.Float64Var(&o.checkpointEvery, "checkpoint-every", 0, "checkpoint every N sim seconds at quiescent points")
	fs.BoolVar(&o.resume, "resume", false, "restore broker state from -checkpoint before serving")
	fs.StringVar(&o.faultPlan, "fault-plan", "", "JSON fault-injection plan file (see internal/faults)")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
	fs.SetOutput(stderr)
	fs.Parse(args) //lint:allow errlint ExitOnError: Parse exits instead of returning an error
	return o, o.validate()
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	o, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	// The flags, or a -config file, describe the run; batch and -serve
	// build it alike.
	if o.configPath != "" {
		r, err := runspec.LoadFile(o.configPath, o.serve)
		if err != nil {
			return err
		}
		o.run = *r
	} else {
		o.run.Model.Drift.Seed = o.synth.Seed
		if o.jobsPath != "" {
			o.run.Workload = &runspec.Workload{Source: runspec.FileSource(o.jobsPath), Path: o.jobsPath}
		} else if !o.serve {
			o.run.Workload = &runspec.Workload{Source: "synthetic", Synthetic: &o.synth}
		}
	}
	if !o.serve {
		env := sim.NewEnvironment()
		fleet, pol, jobs, err := o.run.Build(env, policy.Params{})
		if err != nil {
			return err
		}
		simEnv, res, err := core.RunBatch(env, fleet, pol, o.run.Model, jobs)
		if err != nil {
			return err
		}
		return report(stdout, simEnv, res, o.export, o.verbose)
	}
	if o.inj, err = buildInjector(o.faultPlan, o.timeScale > 0, stderr); err != nil {
		return err
	}
	// -admit-burst sizes a token bucket only when -admit-rate sets one.
	if o.admit.RatePerS == 0 {
		o.admit.Burst = 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, o.serveOptions, stdin, stdout, stderr)
}

// serveFlags are meaningful only with -serve.
var serveFlags = []string{"listen", "http", "admit-policy", "admit-max-queue", "admit-tenant-quota", "admit-retry-after",
	"admit-rate", "admit-burst",
	"time-scale", "window", "metrics-every", "checkpoint", "checkpoint-every", "resume", "fault-plan"}

// configFlags, with serveFlags, are the flags a -config run takes: the
// file describes everything else.
var configFlags = []string{"config", "serve", "export", "v", "cpuprofile", "memprofile"}

// faultEventLine wraps a fired fault for the JSONL telemetry stream, so
// fault events interleave distinguishably with metrics lines on stderr.
type faultEventLine struct {
	Event string       `json:"event"`
	Fault faults.Event `json:"fault"`
}

// buildInjector loads and compiles the -fault-plan, wiring fired-fault
// telemetry to errOut. No rule may be silently ignored: ingest line
// rules are refused in real time (-time-scale > 0, which -listen
// needs), where streams are decoded without the logical-time line loop.
func buildInjector(planPath string, realTime bool, errOut io.Writer) (*faults.Injector, error) {
	if planPath == "" {
		return nil, nil
	}
	plan, err := faults.LoadPlan(planPath)
	if err != nil {
		return nil, err
	}
	for i, r := range plan.Rules {
		if realTime && r.Layer == faults.LayerIngest && r.Op == faults.OpLine {
			return nil, fmt.Errorf("fault plan %s: rule %d (%s/%s/%s) applies only to logical-time stdin; a real-time broker honours ingest/read rules",
				planPath, i, r.Layer, r.Op, r.Kind)
		}
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	inj.SetOnEvent(func(ev faults.Event) {
		data, err := json.Marshal(faultEventLine{Event: "fault", Fault: ev})
		if err != nil {
			return
		}
		fmt.Fprintf(errOut, "%s\n", data) //lint:allow errlint fault telemetry is best-effort; a broken stderr must not stop the broker
	})
	return inj, nil
}

// validate rejects inconsistent flag combinations up front, with
// actionable messages, instead of silently ignoring a flag the user set
// (the old behaviour for, e.g., -jobs alongside -n, or -rlmodel with a
// heuristic policy). Checks walk set, the flags given, in name order,
// so several conflicts always name the same flag.
func (o *options) validate() error {
	var set []string
	o.fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	has := func(f string) bool { return slices.Contains(set, f) }
	if args := o.fs.Args(); len(args) > 0 {
		return fmt.Errorf("unexpected positional arguments %q (all inputs are flags)", args)
	}
	if err := profiling.CheckPaths(o.cpuProfile, o.memProfile); err != nil {
		return err
	}
	if has("config") {
		for _, f := range set {
			if !slices.Contains(configFlags, f) && !slices.Contains(serveFlags, f) {
				return fmt.Errorf("-config specifies the whole simulation; -%s conflicts with it", f)
			}
		}
	}
	if o.serve {
		for _, f := range set {
			switch f {
			case "jobs", "n", "interarrival":
				return fmt.Errorf("-serve ingests jobs from the stream; -%s configures a batch workload and conflicts with it", f)
			case "seed":
				if !has("drift-interval") {
					return fmt.Errorf("-serve ingests jobs from the stream; -seed only seeds the drift walk there, so pass it with -drift-interval")
				}
			case "v":
				return fmt.Errorf("-v prints batch per-job records; the broker already streams records to stdout")
			}
		}
		if o.listen != "" {
			if _, _, err := net.SplitHostPort(o.listen); err != nil {
				return fmt.Errorf("-listen address %q is not host:port: %v", o.listen, err)
			}
			if o.timeScale <= 0 {
				return fmt.Errorf("-listen runs a real-time broker; pass -time-scale > 0 (sim seconds per wall second)")
			}
		}
		if o.httpAddr != "" {
			if _, _, err := net.SplitHostPort(o.httpAddr); err != nil {
				return fmt.Errorf("-http address %q is not host:port: %v", o.httpAddr, err)
			}
		}
		switch o.admit.Policy {
		case core.AdmitAll:
			for _, f := range []string{"admit-max-queue", "admit-tenant-quota", "admit-retry-after"} {
				if has(f) {
					return fmt.Errorf("-%s needs -admit-policy to pick an admission policy", f)
				}
			}
		case core.AdmitReject, core.AdmitShed:
			if o.admit.MaxQueue <= 0 {
				return fmt.Errorf("-admit-policy %s bounds the queue; pass -admit-max-queue > 0", o.admit.Policy)
			}
			if has("admit-tenant-quota") {
				return fmt.Errorf("-admit-tenant-quota only applies to -admit-policy quota, not %q", o.admit.Policy)
			}
		case core.AdmitQuota:
			if o.admit.TenantQuota <= 0 {
				return fmt.Errorf("-admit-policy quota bounds per-tenant in-flight jobs; pass -admit-tenant-quota > 0")
			}
			if has("admit-max-queue") {
				return fmt.Errorf("-admit-max-queue only applies to -admit-policy reject|shed, not quota")
			}
		default:
			return fmt.Errorf("unknown -admit-policy %q (reject|shed|quota)", o.admit.Policy)
		}
		if o.admit.RetryAfterS < 0 {
			return fmt.Errorf("-admit-retry-after must be >= 0, have %g", o.admit.RetryAfterS)
		}
		if has("admit-rate") && o.admit.RatePerS <= 0 {
			return fmt.Errorf("-admit-rate must be > 0 jobs per simulated second, have %g", o.admit.RatePerS)
		}
		if has("admit-burst") {
			if !has("admit-rate") {
				return fmt.Errorf("-admit-burst sizes the -admit-rate token bucket; pass -admit-rate with it")
			}
			if o.admit.Burst < 1 {
				return fmt.Errorf("-admit-burst must be >= 1 so a full bucket admits at least one job, have %g", o.admit.Burst)
			}
		}
		if o.timeScale < 0 {
			return fmt.Errorf("-time-scale must be >= 0, have %g", o.timeScale)
		}
		if o.window <= 0 {
			return fmt.Errorf("-window must be > 0, have %d", o.window)
		}
		if o.metricsEvery < 0 {
			return fmt.Errorf("-metrics-every must be >= 0, have %g", o.metricsEvery)
		}
		if has("checkpoint-every") {
			if o.checkpointPath == "" {
				return fmt.Errorf("-checkpoint-every needs -checkpoint for the snapshot path")
			}
			if o.checkpointEvery <= 0 {
				return fmt.Errorf("-checkpoint-every must be > 0, have %g", o.checkpointEvery)
			}
		}
		if o.resume && o.checkpointPath == "" {
			return fmt.Errorf("-resume needs -checkpoint for the snapshot to restore")
		}
	} else {
		for _, f := range serveFlags {
			if has(f) {
				return fmt.Errorf("-%s is a broker service flag; pass -serve with it", f)
			}
		}
		if has("jobs") {
			for _, f := range []string{"interarrival", "n", "seed"} {
				if has(f) && !(f == "seed" && has("drift-interval")) {
					return fmt.Errorf("-jobs replays a workload file; -%s configures the synthetic generator and conflicts with it", f)
				}
			}
		}
	}
	if has("drift-magnitude") && !has("drift-interval") {
		return fmt.Errorf("-drift-magnitude sizes the -drift-interval walk's steps; pass -drift-interval with it")
	}
	if has("config") {
		return nil
	}
	if !policy.Registered(o.run.Policy) {
		return fmt.Errorf("unknown -policy %q (registered: %s)", o.run.Policy, strings.Join(policy.Names(), ", "))
	}
	if policy.NeedsModel(o.run.Policy) {
		if o.run.RLModelPath == "" {
			return fmt.Errorf("-policy %s requires -rlmodel (train one with ppotrain)", o.run.Policy)
		}
	} else {
		for _, f := range []string{"rlmodel", "rlseed"} {
			if has(f) {
				return fmt.Errorf("-%s only applies to -policy rlbase (a policy with a trained model), not %q", f, o.run.Policy)
			}
		}
	}
	return nil
}

// report prints the run summary to stdout and optionally exports
// per-job records. The summary is printed even if the export fails.
func report(stdout io.Writer, simEnv *core.QCloudSimEnv, res core.Results, export string, verbose bool) (err error) {
	w := bufio.NewWriter(stdout)
	defer func() { err = errors.Join(w.Flush(), err) }()
	fmt.Fprintf(w, "policy      %s\n", res.Policy)
	fmt.Fprintf(w, "jobs        %d\n", res.JobsFinished)
	fmt.Fprintf(w, "T_sim       %.2f s\n", res.TotalSimTime)
	fmt.Fprintf(w, "fidelity    %.5f +- %.5f\n", res.FidelityMean, res.FidelityStd)
	fmt.Fprintf(w, "T_comm      %.2f s\n", res.TotalCommTime)
	fmt.Fprintf(w, "mean wait   %.2f s\n", res.MeanWaitTime)
	fmt.Fprintf(w, "mean k      %.2f devices/job\n", res.MeanDevicesPerJob)
	util := make(map[string]float64, len(simEnv.Cloud.Devices()))
	for _, d := range simEnv.Cloud.Devices() {
		util[d.Name()] = d.Utilization()
	}
	fmt.Fprintln(w, "device load:")
	for _, share := range simEnv.Records.DeviceLoadShare() {
		fmt.Fprintf(w, "  %-16s %5d sub-jobs (%4.1f%%)  utilization %4.1f%%\n",
			share.Name, share.SubJobs, 100*share.Share, 100*util[share.Name])
	}
	if export != "" {
		if err := writeFile(export, simEnv.Records.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintln(w, "records written to", export)
	}
	if verbose {
		fmt.Fprintln(w, "per-job records:")
		for _, s := range simEnv.Records.Finished() {
			fmt.Fprintf(w, "  %-10s wait=%9.1f exec=%9.1f F=%.4f k=%d devices=%s\n",
				s.JobID, s.WaitTime(), s.ExecTime(), s.Fidelity, s.Devices,
				strings.Join(s.DeviceNames, ","))
		}
	}
	return nil
}

// writeFile creates path and fills it with write. A write error is
// reported ahead of the close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

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
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// exitCrash is the exit status of a run stopped by an injected crash
// (a fault plan's ingest/line/crash rule), so a driver can tell it from
// a failure.
const exitCrash = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qcloudsim:", err)
		if errors.Is(err, errCrash) {
			os.Exit(exitCrash)
		}
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		configPath   = flag.String("config", "", "JSON run spec: fleet, policy, model and (batch only) workload (Configurations Layer; replaces their flags)")
		polName      = flag.String("policy", "speed", "allocation policy: "+strings.Join(policy.Names(), "|"))
		jobsPath     = flag.String("jobs", "", "CSV or JSON workload file (default: synthetic)")
		n            = flag.Int("n", 1000, "synthetic workload size")
		seed         = flag.Int64("seed", 1, "synthetic workload and drift-walk seed")
		fleetSeed    = flag.Int64("fleet-seed", 2025, "calibration snapshot seed")
		interarrival = flag.Float64("interarrival", 60, "mean inter-arrival time (s)")
		mConst       = flag.Int("m", 10, "Eq.3 circuit-template constant M")
		kConst       = flag.Int("k", 10, "Eq.3 parameter-update constant K")
		phi          = flag.Float64("phi", 0.95, "Eq.8 per-link fidelity penalty")
		lambda       = flag.Float64("lambda", 0.02, "Eq.9 per-qubit comm latency (s)")
		rlModel      = flag.String("rlmodel", "", "trained policy JSON (required for -policy rlbase)")
		rlSeed       = flag.Int64("rlseed", 7, "deployment sampling seed for rlbase")
		backfill     = flag.Bool("backfill", false, "enable EASY-style backfill dispatch")
		driftEvery   = flag.Float64("drift-interval", 0, "recalibration interval in s (0 = static calibration)")
		driftMag     = flag.Float64("drift-magnitude", 0.2, "relative calibration drift per recalibration")
		export       = flag.String("export", "", "write per-job records CSV to this path")
		verbose      = flag.Bool("v", false, "print per-job records")

		serve            = flag.Bool("serve", false, "run as a broker service ingesting line-delimited JSON jobs")
		listen           = flag.String("listen", "", "broker TCP listen address host:port (default: read stdin)")
		httpAddr         = flag.String("http", "", "HTTP control-plane listen address host:port (submit/status/metrics API)")
		admitPolicy      = flag.String("admit-policy", "", "admission control: reject|shed|quota (default: admit everything)")
		admitMaxQueue    = flag.Int("admit-max-queue", 0, "queue-depth bound for -admit-policy reject|shed")
		admitTenantQuota = flag.Int("admit-tenant-quota", 0, "per-tenant in-flight job bound for -admit-policy quota")
		admitRetryAfter  = flag.Float64("admit-retry-after", 30, "Retry-After seconds advertised on refused submissions")
		admitRate        = flag.Float64("admit-rate", 0, "per-tenant token-bucket admission rate (jobs per simulated second; 0 = unlimited)")
		admitBurst       = flag.Float64("admit-burst", 1, "token-bucket burst capacity for -admit-rate")
		timeScale        = flag.Float64("time-scale", 0, "sim seconds per wall second (0 = logical time, deterministic)")
		window           = flag.Int("window", 512, "rolling metrics window capacity (completions per tenant)")
		metricsEvery     = flag.Float64("metrics-every", 0, "emit a metrics line every N sim seconds (0 = final only)")
		checkpointPath   = flag.String("checkpoint", "", "broker checkpoint file")
		checkpointEvery  = flag.Float64("checkpoint-every", 0, "checkpoint every N sim seconds at quiescent points")
		resume           = flag.Bool("resume", false, "restore broker state from -checkpoint before serving")
		faultPlan        = flag.String("fault-plan", "", "JSON fault-injection plan file (see internal/faults)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, flag.Args(), *serve, *polName, *rlModel, *listen, *httpAddr,
		*admitPolicy, *admitMaxQueue, *admitTenantQuota, *admitRetryAfter, *admitRate, *admitBurst,
		*timeScale, *window, *metricsEvery, *checkpointPath, *checkpointEvery, *resume,
		*faultPlan, *cpuProfile, *memProfile); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	var b batch
	if *configPath != "" {
		if b, err = loadConfigFile(*configPath, *serve); err != nil {
			return err
		}
	} else {
		b.cloud = cloud{fleetSeed: *fleetSeed, policy: *polName, rlModel: *rlModel, rlSeed: *rlSeed,
			cfg: core.Config{M: *mConst, K: *kConst, Phi: *phi, Lambda: *lambda, Backfill: *backfill,
				Drift: core.DriftConfig{IntervalS: *driftEvery, Rel: *driftMag, Seed: *seed}}}
		if path := *jobsPath; path != "" {
			b.workload = func() ([]*job.QJob, error) { return job.LoadFile(path) }
		} else {
			sc := job.DefaultSyntheticConfig()
			sc.N, sc.Seed, sc.MeanInterarrival = *n, *seed, *interarrival
			b.workload = func() ([]*job.QJob, error) { return job.Synthetic(sc) }
		}
	}
	if !*serve {
		return b.run(*export, *verbose)
	}
	inj, err := buildInjector(*faultPlan, *timeScale > 0, os.Stderr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := serveOptions{
		cloud:           b.cloud,
		listen:          *listen,
		httpAddr:        *httpAddr,
		admit:           admissionConfig(*admitPolicy, *admitMaxQueue, *admitTenantQuota, *admitRetryAfter, *admitRate, *admitBurst),
		timeScale:       *timeScale,
		window:          *window,
		metricsEvery:    *metricsEvery,
		checkpointPath:  *checkpointPath,
		checkpointEvery: *checkpointEvery,
		resume:          *resume,
		export:          *export,
		inj:             inj,
	}
	return runServe(ctx, opts, os.Stdin, os.Stdout, os.Stderr)
}

// cloud is a run minus its workload: fleet, policy and model. The flags
// or a -config file describe it; batch and -serve build it alike.
type cloud struct {
	// devices describes the fleet; nil means the standard five-device
	// cloud with calibration drawn from fleetSeed.
	devices   []device.Spec
	fleetSeed int64
	// policy names a registered allocation policy; rlModel and rlSeed
	// feed a model-requiring one (rlbase).
	policy  string
	rlModel string
	rlSeed  int64
	cfg     core.Config
}

// build constructs the fleet on env and, through the registry, the
// allocation policy, which gets the model's Eq. 8 penalty for fidelity
// predictions. It refuses a fleet the policy cannot schedule before
// any job runs.
func (c cloud) build(env *sim.Environment) ([]*device.Device, policy.Policy, error) {
	var fleet []*device.Device
	var err error
	if c.devices != nil {
		fleet, err = device.BuildFleet(env, c.devices)
	} else {
		fleet, err = device.StandardFleet(env, c.fleetSeed)
	}
	if err != nil {
		return nil, nil, err
	}
	p := policy.Params{Seed: c.rlSeed, Phi: c.cfg.Phi}
	if policy.NeedsModel(c.policy) {
		if p.Model, err = rlsched.LoadPolicy(c.rlModel); err != nil {
			return nil, nil, err
		}
	}
	pol, err := policy.New(c.policy, p)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := pol.(policy.Oracle); ok && len(fleet) > policy.OracleMaxDevices {
		return nil, nil, fmt.Errorf("policy oracle enumerates device subsets and supports at most %d devices; the fleet has %d",
			policy.OracleMaxDevices, len(fleet))
	}
	return fleet, pol, nil
}

// batch is one batch simulation: a cloud and the workload it runs.
type batch struct {
	cloud
	workload func() ([]*job.QJob, error)
}

// run assembles the simulation, runs the workload to completion and
// reports it.
func (b batch) run(export string, verbose bool) error {
	env := sim.NewEnvironment()
	fleet, pol, err := b.build(env)
	if err != nil {
		return err
	}
	jobs, err := b.workload()
	if err != nil {
		return err
	}
	simEnv, res, err := core.RunBatch(env, fleet, pol, b.cfg, jobs)
	if err != nil {
		return err
	}
	return report(simEnv, res, export, verbose)
}

// serveFlags are meaningful only with -serve.
var serveFlags = []string{"listen", "http", "admit-policy", "admit-max-queue", "admit-tenant-quota", "admit-retry-after",
	"admit-rate", "admit-burst",
	"time-scale", "window", "metrics-every", "checkpoint", "checkpoint-every", "resume", "fault-plan"}

// admissionConfig maps the -admit-* flags onto the broker's admission
// configuration. validateFlags has already rejected inconsistent
// combinations.
func admissionConfig(policyName string, maxQueue, tenantQuota int, retryAfter, rate, burst float64) core.AdmissionConfig {
	var cfg core.AdmissionConfig
	switch policyName {
	case "reject":
		cfg = core.AdmissionConfig{Policy: core.AdmitReject, MaxQueue: maxQueue, RetryAfterS: retryAfter}
	case "shed":
		cfg = core.AdmissionConfig{Policy: core.AdmitShed, MaxQueue: maxQueue, RetryAfterS: retryAfter}
	case "quota":
		cfg = core.AdmissionConfig{Policy: core.AdmitQuota, TenantQuota: tenantQuota, RetryAfterS: retryAfter}
	}
	if rate > 0 {
		cfg.RatePerS = rate
		cfg.Burst = burst
	}
	return cfg
}

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

// validateFlags rejects inconsistent flag combinations up front, with
// actionable messages, instead of silently ignoring a flag the user set
// (the old behaviour for, e.g., -jobs alongside -n, or -rlmodel with a
// heuristic policy).
func validateFlags(set map[string]bool, args []string, serve bool, polName, rlModel, listen, httpAddr string,
	admitPolicy string, admitMaxQueue, admitTenantQuota int, admitRetryAfter, admitRate, admitBurst float64,
	timeScale float64, window int, metricsEvery float64, checkpointPath string, checkpointEvery float64, resume bool,
	faultPlan, cpuProfile, memProfile string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected positional arguments %q (all inputs are flags)", args)
	}
	if err := profiling.CheckPath("cpuprofile", cpuProfile); err != nil {
		return err
	}
	if err := profiling.CheckPath("memprofile", memProfile); err != nil {
		return err
	}
	if set["config"] {
		for f := range set {
			switch {
			case f == "config", f == "serve", f == "export", f == "v", f == "cpuprofile", f == "memprofile", slices.Contains(serveFlags, f):
			default:
				return fmt.Errorf("-config specifies the whole simulation; -%s conflicts with it", f)
			}
		}
	}
	if serve {
		for f := range set {
			switch f {
			case "jobs", "n", "interarrival":
				return fmt.Errorf("-serve ingests jobs from the stream; -%s configures a batch workload and conflicts with it", f)
			case "seed":
				if !set["drift-interval"] {
					return fmt.Errorf("-serve ingests jobs from the stream; -seed only seeds the drift walk there, so pass it with -drift-interval")
				}
			case "v":
				return fmt.Errorf("-v prints batch per-job records; the broker already streams records to stdout")
			}
		}
		if listen != "" {
			if _, _, err := net.SplitHostPort(listen); err != nil {
				return fmt.Errorf("-listen address %q is not host:port: %v", listen, err)
			}
			if timeScale <= 0 {
				return fmt.Errorf("-listen runs a real-time broker; pass -time-scale > 0 (sim seconds per wall second)")
			}
		}
		if httpAddr != "" {
			if _, _, err := net.SplitHostPort(httpAddr); err != nil {
				return fmt.Errorf("-http address %q is not host:port: %v", httpAddr, err)
			}
		}
		switch admitPolicy {
		case "":
			for _, f := range []string{"admit-max-queue", "admit-tenant-quota", "admit-retry-after"} {
				if set[f] {
					return fmt.Errorf("-%s needs -admit-policy to pick an admission policy", f)
				}
			}
		case "reject", "shed":
			if admitMaxQueue <= 0 {
				return fmt.Errorf("-admit-policy %s bounds the queue; pass -admit-max-queue > 0", admitPolicy)
			}
			if set["admit-tenant-quota"] {
				return fmt.Errorf("-admit-tenant-quota only applies to -admit-policy quota, not %q", admitPolicy)
			}
		case "quota":
			if admitTenantQuota <= 0 {
				return fmt.Errorf("-admit-policy quota bounds per-tenant in-flight jobs; pass -admit-tenant-quota > 0")
			}
			if set["admit-max-queue"] {
				return fmt.Errorf("-admit-max-queue only applies to -admit-policy reject|shed, not quota")
			}
		default:
			return fmt.Errorf("unknown -admit-policy %q (reject|shed|quota)", admitPolicy)
		}
		if admitRetryAfter < 0 {
			return fmt.Errorf("-admit-retry-after must be >= 0, have %g", admitRetryAfter)
		}
		if set["admit-rate"] && admitRate <= 0 {
			return fmt.Errorf("-admit-rate must be > 0 jobs per simulated second, have %g", admitRate)
		}
		if set["admit-burst"] {
			if !set["admit-rate"] {
				return fmt.Errorf("-admit-burst sizes the -admit-rate token bucket; pass -admit-rate with it")
			}
			if admitBurst < 1 {
				return fmt.Errorf("-admit-burst must be >= 1 so a full bucket admits at least one job, have %g", admitBurst)
			}
		}
		if timeScale < 0 {
			return fmt.Errorf("-time-scale must be >= 0, have %g", timeScale)
		}
		if window <= 0 {
			return fmt.Errorf("-window must be > 0, have %d", window)
		}
		if metricsEvery < 0 {
			return fmt.Errorf("-metrics-every must be >= 0, have %g", metricsEvery)
		}
		if set["checkpoint-every"] {
			if checkpointPath == "" {
				return fmt.Errorf("-checkpoint-every needs -checkpoint for the snapshot path")
			}
			if checkpointEvery <= 0 {
				return fmt.Errorf("-checkpoint-every must be > 0, have %g", checkpointEvery)
			}
		}
		if resume && checkpointPath == "" {
			return fmt.Errorf("-resume needs -checkpoint for the snapshot to restore")
		}
	} else {
		for _, f := range serveFlags {
			if set[f] {
				return fmt.Errorf("-%s is a broker service flag; pass -serve with it", f)
			}
		}
		if set["jobs"] {
			for _, f := range []string{"n", "seed", "interarrival"} {
				if set[f] && !(f == "seed" && set["drift-interval"]) {
					return fmt.Errorf("-jobs replays a workload file; -%s configures the synthetic generator and conflicts with it", f)
				}
			}
		}
	}
	if set["config"] {
		return nil
	}
	if !policy.Registered(polName) {
		return fmt.Errorf("unknown -policy %q (registered: %s)", polName, strings.Join(policy.Names(), ", "))
	}
	if policy.NeedsModel(polName) {
		if rlModel == "" {
			return fmt.Errorf("-policy %s requires -rlmodel (train one with ppotrain)", polName)
		}
	} else {
		for _, f := range []string{"rlmodel", "rlseed"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -policy rlbase (a policy with a trained model), not %q", f, polName)
			}
		}
	}
	return nil
}

// report prints the run summary and optionally exports per-job records.
func report(simEnv *core.QCloudSimEnv, res core.Results, export string, verbose bool) error {
	fmt.Printf("policy      %s\n", res.Policy)
	fmt.Printf("jobs        %d\n", res.JobsFinished)
	fmt.Printf("T_sim       %.2f s\n", res.TotalSimTime)
	fmt.Printf("fidelity    %.5f +- %.5f\n", res.FidelityMean, res.FidelityStd)
	fmt.Printf("T_comm      %.2f s\n", res.TotalCommTime)
	fmt.Printf("mean wait   %.2f s\n", res.MeanWaitTime)
	fmt.Printf("mean k      %.2f devices/job\n", res.MeanDevicesPerJob)
	util := make(map[string]float64, len(simEnv.Cloud.Devices()))
	for _, d := range simEnv.Cloud.Devices() {
		util[d.Name()] = d.Utilization()
	}
	fmt.Println("device load:")
	for _, share := range simEnv.Records.DeviceLoadShare() {
		fmt.Printf("  %-16s %5d sub-jobs (%4.1f%%)  utilization %4.1f%%\n",
			share.Name, share.SubJobs, 100*share.Share, 100*util[share.Name])
	}
	if export != "" {
		if err := writeFile(export, simEnv.Records.WriteCSV); err != nil {
			return err
		}
		fmt.Println("records written to", export)
	}
	if verbose {
		fmt.Println("per-job records:")
		for _, s := range simEnv.Records.Finished() {
			fmt.Printf("  %-10s wait=%9.1f exec=%9.1f F=%.4f k=%d devices=%s\n",
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

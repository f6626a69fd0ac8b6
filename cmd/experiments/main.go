// Command experiments regenerates the paper's evaluation artifacts:
// Table 2, Figure 5, Figure 6, and the ablation sweeps. Artifacts print
// to stdout; -outdir additionally writes CSVs for external plotting,
// and -out writes a run manifest (JSON + CSV) recording every task's
// configuration, results and wall time.
//
// The manifest-producing artifacts (table2, replicate, ablations) are
// compiled down to a declarative experiments.Spec and executed through
// experiments.Run, the same code path that serves -spec files — so a
// flag-driven run and its spec-file equivalent are the same run:
//
//	experiments -artifact table2 -n 30 -train 2048 -out runs/
//	experiments -spec specs/smoke.json -out runs/
//
// Every task matrix runs on the in-process worker pool (-workers caps
// it; -workers 1 runs the tasks one at a time). The pool is
// deterministic: for fixed seeds a run's manifest is identical whatever
// the pool size, wall times aside.
//
// The figure artifacts (fig5, fig6, and the combined "all") also need
// in-process run state — training history, per-job fidelity records —
// and execute their matrices on one trained case study.
//
// -diff compares two saved manifests and exits non-zero when they
// disagree on any task result — the determinism gate CI uses, and the
// quickest way to check whether a change moved any metric:
//
//	experiments -diff runs/a/manifest.json runs/b/manifest.json
//	experiments -diff -tol 1e-9 a.json b.json   # absorb float drift
//
// Replication over workload seeds has one form, the "…@seed<k>"
// fan-out: -artifact replicate is Table 2's modes matrix with
// "replications" set to -replications, and a spec replicates with
// "replications" or a matrix's "replication_seeds". For every
// replicated run -out additionally writes aggregated.json /
// aggregated.csv — per-task mean/std/stderr/CI95 across the workload
// seeds, the figures -artifact replicate prints — and -diff -sig
// compares runs statistically instead of exactly: Welch's t on the
// stored aggregates (CI95-overlap when a task has fewer than two
// replicas), exiting non-zero only on significant deltas. Either file
// may be a run manifest (aggregated on the fly) or an aggregated
// manifest; exact -diff takes run manifests only:
//
//	experiments -diff -sig runs/a/aggregated.json runs/b/manifest.json
//
// -trend ingests a directory of per-commit artifacts — CI's
// BENCH_<sha>.json bench files, aggregated manifests, or plain run
// manifests — ordered by their embedded date when every file has one,
// by filename otherwise (name files in commit order), and reports each
// metric's trajectory, exiting non-zero when the newest point shifted
// significantly (Welch where stderr is stored, a relative threshold
// otherwise):
//
//	experiments -trend perf-history/
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/profiling"
	"repro/internal/records"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failure for stderr with the command's prefix
// exactly once: errors from the experiments package carry the same
// prefix, possibly behind a path or a matrix label, so every copy is
// dropped before one leads the line.
func errorLine(err error) string {
	return "experiments: " + strings.ReplaceAll(err.Error(), "experiments: ", "")
}

// options is one experiments invocation: fs, the command line it was
// parsed from, and every flag's value. spec is the flag path's
// workload, which compileSpec lowers onto an artifact's matrices and
// runFigures builds its case study from.
type options struct {
	fs *flag.FlagSet

	artifact, specPath, outdir, out, trendDir, cpuProf, memProf string
	spec                                                        experiments.Spec
	n                                                           int
	exec                                                        experiments.ExecOptions
	diffOpt                                                     records.DiffOptions
	trendTol                                                    float64
	progress, diff, sig                                         bool
}

// parseArgs defines every flag once, bound straight into options,
// parses args and validates the combination: the one parse main and
// the tests share. A bad flag exits 2 after printing the usage to
// stderr, as the flag package does (-h exits 0).
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	o := &options{fs: fs, spec: experiments.Spec{Seed: new(int64), FleetSeed: new(int64)}}
	fs.StringVar(&o.artifact, "artifact", "all", "which artifact: "+strings.Join(artifacts, "|"))
	fs.StringVar(&o.specPath, "spec", "", "declarative experiment spec file (JSON); replaces -artifact, -scenario and the workload flags")
	fs.StringVar(&o.spec.Scenario, "scenario", "", "registered scenario for flag-driven runs (default: paper); see experiments.ScenarioNames")
	fs.IntVar(&o.n, "n", 1000, "workload size (paper: 1000)")
	fs.IntVar(&o.spec.TrainSteps, "train", 100000, "PPO training timesteps (paper: 100000)")
	fs.Int64Var(o.spec.Seed, "seed", 1, "workload seed")
	fs.Int64Var(o.spec.FleetSeed, "fleet-seed", 2025, "calibration snapshot seed")
	fs.StringVar(&o.outdir, "outdir", "", "optional directory for CSV artifacts")
	fs.IntVar(&o.exec.Workers, "workers", 0, "worker pool size for independent simulations, >= 1 (omit for GOMAXPROCS)")
	fs.IntVar(&o.spec.Replications, "replications", 5, "workload seeds for -artifact replicate")
	fs.StringVar(&o.out, "out", "", "optional directory for the run manifest (manifest.json + manifest.csv)")
	fs.BoolVar(&o.progress, "progress", true, "report per-task completion on stderr")
	fs.BoolVar(&o.diff, "diff", false, "compare two run manifests: -diff a.json b.json (exit 1 on any difference)")
	fs.BoolVar(&o.sig, "sig", false, "with -diff: significance comparison of replicated runs (Welch's t at alpha=0.05, CI95-overlap below 2 replicas); accepts run or aggregated manifests")
	fs.Float64Var(&o.diffOpt.AbsTol, "tol", 0, "with -diff: absolute tolerance on metric deltas, for cross-platform float drift (0 = exact)")
	fs.Float64Var(&o.diffOpt.RelTol, "rtol", 0, "with -diff: relative tolerance on metric deltas (0 = exact)")
	fs.StringVar(&o.trendDir, "trend", "", "report per-metric trajectories over a directory of BENCH_*.json / manifest artifacts and exit 1 on a significant shift in the newest one")
	fs.Float64Var(&o.trendTol, "trend-tol", 0.05, "with -trend: relative shift threshold for metrics without a stored stderr (e.g. bench ns/op)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile (runtime/pprof) of this process to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile (runtime/pprof) of this process to this file at exit")
	fs.SetOutput(stderr)
	fs.Parse(args) //lint:allow errlint ExitOnError: Parse exits instead of returning an error
	// Only a given -n overrides the scenario's workload size: a trace
	// workload fixes its own.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			o.spec.Jobs = o.n
		}
	})
	return o, o.validate()
}

func run(args []string) (err error) {
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	if o.trendDir != "" {
		return runTrend(os.Stdout, o.trendDir, o.trendTol)
	}
	if o.diff {
		return diffManifests(o.fs.Arg(0), o.fs.Arg(1), o.sig, o.diffOpt)
	}
	if o.progress {
		o.exec.OnProgress = progressPrinter
	}

	for _, dir := range []string{o.outdir, o.out} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	// A -spec file is the experiment (only execution knobs come from
	// flags), and a manifest artifact compiles to the Spec it stands
	// for: both run through experiments.Run. Figure artifacts execute
	// the same matrices in-process on one trained case study.
	var spec experiments.Spec
	switch {
	case o.specPath != "":
		s, err := experiments.LoadSpecFile(o.specPath)
		if err != nil {
			return err
		}
		spec = *s
	case o.artifact == "fig5" || o.artifact == "fig6" || o.artifact == "all":
		return runFigures(o.artifact, o.spec, o.exec, o.outdir, o.out)
	default:
		if spec, err = compileSpec(o.artifact, o.spec); err != nil {
			return err
		}
	}
	m, err := experiments.Run(context.Background(), spec, o.exec)
	if err != nil {
		return err
	}
	if o.specPath != "" {
		fmt.Fprintf(os.Stderr, "spec %q: %d task(s)\n", m.Label, len(m.Runs))
		if o.out == "" {
			// No manifest directory: the manifest is the output, so emit
			// it on stdout for pipelines.
			return m.WriteJSON(os.Stdout)
		}
	} else if err := renderArtifact(o.artifact, m, o.outdir); err != nil {
		return err
	}
	return writeManifest(m, o.out)
}

// The -artifact names, the flags a -spec file replaces, and the only
// flags -diff and -trend take.
var (
	artifacts     = []string{"table2", "fig5", "fig6", "ablations", "replicate", "all"}
	specConflicts = []string{"artifact", "scenario", "n", "train", "seed", "fleet-seed", "replications", "outdir"}
	diffFlags     = []string{"diff", "sig", "tol", "rtol"}
	trendFlags    = []string{"trend", "trend-tol"}
)

// validate rejects inconsistent flag combinations up front, with
// actionable messages, instead of failing late inside a run (or worse,
// silently ignoring a flag the user set). Checks walk set, the flags
// given, in name order, so several conflicts always name the same flag.
func (o *options) validate() error {
	var set []string
	o.fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	has := func(f string) bool { return slices.Contains(set, f) }
	args := o.fs.Args()
	if err := profiling.CheckPaths(o.cpuProf, o.memProf); err != nil {
		return err
	}
	switch {
	case has("trend"):
		if o.trendDir == "" {
			return fmt.Errorf("-trend needs the artifact directory as its value (an empty one usually means an unset shell variable)")
		}
		for _, f := range set {
			if !slices.Contains(trendFlags, f) {
				return fmt.Errorf("-trend reads saved artifacts only; -%s conflicts with it", f)
			}
		}
		if len(args) > 0 {
			return fmt.Errorf("-trend takes the artifact directory as its value and no positional arguments")
		}
		if o.trendTol <= 0 {
			return fmt.Errorf("-trend-tol must be > 0, have %g", o.trendTol)
		}
		return nil
	case o.diff:
		for _, f := range set {
			if !slices.Contains(diffFlags, f) {
				return fmt.Errorf("-diff takes exactly two manifest paths and no other flags beyond -sig/-tol/-rtol")
			}
		}
		if len(args) != 2 {
			return fmt.Errorf("-diff takes exactly two manifest paths, have %d", len(args))
		}
		if o.diffOpt.AbsTol < 0 || o.diffOpt.RelTol < 0 {
			return fmt.Errorf("-tol and -rtol must be >= 0")
		}
		if o.sig && (has("tol") || has("rtol")) {
			return fmt.Errorf("-sig decides by statistics, not tolerances; drop -tol/-rtol")
		}
		return nil
	case has("sig") || has("tol") || has("rtol"):
		return fmt.Errorf("-sig, -tol and -rtol modify -diff; pass -diff with them")
	case has("trend-tol"):
		return fmt.Errorf("-trend-tol modifies -trend; pass -trend with it")
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q (all inputs are flags; -diff takes the only positional arguments)", args)
	}
	if has("workers") && o.exec.Workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (omit the flag for the automatic default)")
	}
	if reps := o.spec.Replications; reps < 1 || reps > experiments.MaxReplications {
		return fmt.Errorf("-replications must be in [1, %d], have %d", experiments.MaxReplications, reps)
	}
	if o.n < 1 {
		return fmt.Errorf("-n must be >= 1, have %d", o.n)
	}
	if o.spec.TrainSteps < 1 {
		return fmt.Errorf("-train must be >= 1, have %d", o.spec.TrainSteps)
	}
	if o.specPath != "" {
		for _, f := range set {
			if slices.Contains(specConflicts, f) {
				return fmt.Errorf("-spec is a self-contained experiment description; -%s conflicts with it (set it inside the spec file)", f)
			}
		}
		return nil
	}
	switch {
	case !slices.Contains(artifacts, o.artifact):
		return fmt.Errorf("unknown artifact %q", o.artifact)
	case has("replications") && o.artifact != "replicate":
		return fmt.Errorf("-replications applies to -artifact replicate only, not %q", o.artifact)
	case has("seed") && o.artifact == "replicate":
		return fmt.Errorf("-seed conflicts with -artifact replicate, which runs workload seeds 1..-replications")
	case has("outdir") && (o.artifact == "ablations" || o.artifact == "replicate"):
		return fmt.Errorf("-outdir: -artifact %s writes no CSV artifacts (use -out for its manifest)", o.artifact)
	case has("out") && o.artifact == "fig5":
		return fmt.Errorf("-out: -artifact fig5 runs no simulation tasks and writes no manifest")
	}
	// The scenario and its overrides resolve before anything runs; a
	// trace workload refuses -n, since it fixes its own job count.
	_, err := o.spec.CaseStudy()
	return err
}

// progressPrinter reports per-task completion on stderr — the one
// progress format shared by every execution path.
func progressPrinter(p runner.Progress) {
	status := fmt.Sprintf(" (%.2fs)", p.Wall.Seconds())
	if p.Err != nil {
		status = " (FAILED: " + p.Err.Error() + ")"
	}
	fmt.Fprintf(os.Stderr, "[%d/%d] %s%s\n", p.Done, p.Total, p.Label, status)
}

// compileSpec lowers the artifact onto the declarative Spec the -spec
// path consumes, over the flag path's workload base, so both are one
// code path by construction. Only replicate keeps base's replications.
func compileSpec(artifact string, base experiments.Spec) (experiments.Spec, error) {
	s := base
	s.Name, s.Replications = artifact, 0
	switch artifact {
	case "table2":
		s.Matrices = []experiments.TaskMatrix{{Kind: "modes"}}
	case "replicate":
		s.Matrices = []experiments.TaskMatrix{{Kind: "modes"}}
		s.Replications = base.Replications
	case "ablations":
		s.Matrices = []experiments.TaskMatrix{
			{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.85, 0.90, 0.95, 1.0}},
			{Kind: "lambda-sweep", Mode: "fair", Values: []float64{0.0, 0.02, 0.05, 0.1}},
			{Kind: "rl-deploy"},
		}
	default:
		return experiments.Spec{}, fmt.Errorf("artifact %q has no spec form", artifact)
	}
	return s, nil
}

// renderArtifact prints the artifact's stdout report from the
// manifest rows — one renderer for the spec-compiled and the figure
// paths.
func renderArtifact(artifact string, m *records.RunManifest, outdir string) error {
	switch artifact {
	case "table2":
		fmt.Printf("== Table 2 (in-process): performance of allocation strategies on %d large circuits ==\n", m.Runs[0].Jobs)
		var rows []records.RunSummary
		for _, r := range m.Runs {
			if r.Kind == "mode" {
				rows = append(rows, r)
			}
		}
		printTable2(rows)
		return writeTable2CSV(outdir, rows)
	case "replicate":
		agg, err := records.AggregateManifests(m)
		if err != nil {
			return err
		}
		fmt.Printf("== Table 2 replicated over %d workload seeds (in-process) ==\n", agg.Rows[0].N)
		fmt.Printf("%-10s %26s %24s %24s %12s\n", "Mode", "T_sim (s)", "muF", "T_comm (s)", "muF CI95")
		for _, r := range agg.Rows {
			ts, mf, tc := r.Metrics["tsim_s"], r.Metrics["fidelity_mean"], r.Metrics["tcomm_s"]
			fmt.Printf("%-10s %14.0f +- %8.0f %14.5f +- %.5f %14.0f +- %7.0f %12.5f\n",
				r.Mode, ts.Mean, ts.Std, mf.Mean, mf.Std, tc.Mean, tc.Std, mf.CI95)
		}
		return nil
	case "ablations":
		fmt.Println("== Ablation: communication penalty phi (speed mode) ==")
		for _, r := range m.Runs {
			if r.Kind == "phi-sweep" {
				fmt.Printf("  phi=%.2f  muF=%.5f\n", r.Param, r.FidelityMean)
			}
		}
		fmt.Println("== Ablation: per-qubit latency lambda (fair mode) ==")
		for _, r := range m.Runs {
			if r.Kind == "lambda-sweep" {
				fmt.Printf("  lambda=%.2f  Tcomm=%.1f  Tsim=%.1f\n", r.Param, r.TcommS, r.TsimS)
			}
		}
		fmt.Println("== Ablation: RL deployment mode (sampled vs deterministic) ==")
		for _, r := range m.Runs {
			if r.Kind != "rl-deploy" {
				continue
			}
			name := "sampled:      "
			if r.RLDeterministic != nil && *r.RLDeterministic {
				name = "deterministic:"
			}
			fmt.Printf("  %s muF=%.5f sigma=%.5f Tcomm=%.1f k=%.2f\n",
				name, r.FidelityMean, r.FidelityStd, r.TcommS, r.MeanDevicesPerJob)
		}
		return nil
	default:
		return fmt.Errorf("artifact %q has no manifest renderer", artifact)
	}
}

// diffManifests loads two saved manifests and reports their per-task
// deltas; any difference (any *significant* difference under -sig) is
// an error so scripts and CI can gate on the exit code.
func diffManifests(pathA, pathB string, sig bool, opt records.DiffOptions) error {
	if sig {
		return diffSignificance(pathA, pathB)
	}
	load := func(path string) (*records.RunManifest, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close() //lint:allow errlint close of a read-only manifest file cannot lose data
		m, err := records.ReadManifestJSON(f)
		if err == nil && m.Runs == nil {
			// The test aggregatedFromJSON's probe applies: without a
			// "runs" array (an aggregated manifest, any other JSON)
			// the document would read as a manifest of zero tasks.
			err = errors.New(`not a run manifest: no "runs" array (-diff -sig compares aggregated manifests)`)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	d := records.DiffManifests(a, b, opt)
	if err := d.Write(os.Stdout); err != nil {
		return err
	}
	if !d.Empty() {
		return fmt.Errorf("manifests differ: %d task(s) with deltas, %d only in %s, %d only in %s",
			len(d.Rows), len(d.OnlyInA), pathA, len(d.OnlyInB), pathB)
	}
	return nil
}

// diffSignificance is -diff -sig: compare two runs statistically via
// their aggregated forms, folding run manifests on the fly.
func diffSignificance(pathA, pathB string) error {
	a, err := loadAggregatedAny(pathA)
	if err != nil {
		return err
	}
	b, err := loadAggregatedAny(pathB)
	if err != nil {
		return err
	}
	d := records.DiffAggregated(a, b)
	if err := d.Write(os.Stdout); err != nil {
		return err
	}
	if !d.Empty() {
		return fmt.Errorf("runs differ significantly: %d base task(s) flagged, %d only in %s, %d only in %s",
			len(d.Rows), len(d.OnlyInA), pathA, len(d.OnlyInB), pathB)
	}
	return nil
}

// errUnknownArtifact marks a JSON document that is neither manifest
// form — callers name the path and the forms they accept.
var errUnknownArtifact = errors.New(`no "rows" or "runs" array`)

// aggregatedFromJSON decodes an aggregated manifest, or a run manifest
// which it folds on the fly. The two forms are told apart by their row
// container ("rows" vs "runs"); anything else — say a BENCH_<sha>.json
// bench artifact handed to -diff -sig by mistake — is
// errUnknownArtifact, not a silently empty manifest (unknown JSON
// fields decode to zero tasks otherwise).
func aggregatedFromJSON(data []byte) (*records.AggregatedManifest, error) {
	var probe struct {
		Rows []json.RawMessage `json:"rows"`
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	switch {
	case probe.Rows != nil:
		return records.ReadAggregatedJSON(bytes.NewReader(data))
	case probe.Runs != nil:
		m, err := records.ReadManifestJSON(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return records.AggregateManifests(m)
	default:
		return nil, errUnknownArtifact
	}
}

// loadAggregatedAny is aggregatedFromJSON from a path — what -diff
// -sig calls on each argument.
func loadAggregatedAny(path string) (*records.AggregatedManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	agg, err := aggregatedFromJSON(data)
	if errors.Is(err, errUnknownArtifact) {
		return nil, fmt.Errorf("%s: neither an aggregated manifest nor a run manifest (%w)", path, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return agg, nil
}

// printTable2 prints one Table 2 line per row.
func printTable2(rows []records.RunSummary) {
	fmt.Printf("%-10s %14s %22s %14s\n", "Mode", "T_sim (s)", "muF +- sigmaF", "T_comm (s)")
	for _, r := range rows {
		fmt.Printf("%-10s %14.2f %14.5f +- %.5f %14.2f\n", r.Mode, r.TsimS, r.FidelityMean, r.FidelityStd, r.TcommS)
	}
}

func writeTable2CSV(outdir string, rows []records.RunSummary) error {
	return writeArtifactFile(outdir, "table2.csv", func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintln(bw, "mode,tsim_s,fidelity_mean,fidelity_std,tcomm_s,mean_devices_per_job,mean_wait_s")
		for _, r := range rows {
			fmt.Fprintf(bw, "%s,%g,%g,%g,%g,%g,%g\n",
				r.Mode, r.TsimS, r.FidelityMean, r.FidelityStd, r.TcommS, r.MeanDevicesPerJob, r.MeanWaitS)
		}
		return bw.Flush()
	})
}

// writeManifest exports a run manifest as JSON and CSV into dir, if
// one is given (-out). Replicated runs (any "…@seed<k>" task ID)
// additionally get their aggregated form — aggregated.json /
// aggregated.csv — the artifact -diff -sig and -trend consume.
func writeManifest(m *records.RunManifest, dir string) error {
	if dir == "" {
		return nil
	}
	if err := writeArtifactFile(dir, "manifest.json", m.WriteJSON); err != nil {
		return err
	}
	if err := writeArtifactFile(dir, "manifest.csv", m.WriteCSV); err != nil {
		return err
	}
	if !hasReplicas(m) {
		return nil
	}
	agg, err := records.AggregateManifests(m)
	if err != nil {
		return err
	}
	if err := writeArtifactFile(dir, "aggregated.json", agg.WriteJSON); err != nil {
		return err
	}
	return writeArtifactFile(dir, "aggregated.csv", agg.WriteCSV)
}

// writeArtifactFile creates dir/name, runs the writer, and reports the
// path — the one create/write/close/announce sequence every manifest
// artifact shares. Without a dir (-outdir or -out unset) it writes
// nothing.
func writeArtifactFile(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// hasReplicas reports whether any task of the manifest is a seed
// replica — the trigger for the aggregated export.
func hasReplicas(m *records.RunManifest) bool {
	for i := range m.Runs {
		if _, _, ok := records.SplitReplicaID(m.Runs[i].ID); ok {
			return true
		}
	}
	return false
}

// runFigures drives the artifacts that need in-process run state:
// fig5 (the training history), fig6 (per-job fidelity records) and
// the combined "all", which also prints Table 2 and the ablations. The
// case study is built once and trained in fig5; the manifest matrices
// then execute on that same trained case study through
// experiments.ExecuteAll, the loop Run uses, so PPO trains once per
// invocation. Figure 6 re-runs each mode with RunMode for its per-job
// fidelities — the same simulations as the manifest's mode rows, which
// carry only the headline results.
func runFigures(artifact string, base experiments.Spec, opt experiments.ExecOptions, outdir, out string) error {
	cs, err := base.CaseStudy()
	if err != nil {
		return err
	}
	if artifact != "fig6" {
		if err := fig5(cs, outdir); err != nil {
			return err
		}
	}
	if artifact == "fig5" {
		return nil
	}

	matrices := []experiments.TaskMatrix{{Kind: "modes"}}
	if artifact == "all" {
		ablations, err := compileSpec("ablations", base)
		if err != nil {
			return err
		}
		matrices = append(matrices, ablations.Matrices...)
	}
	m, err := experiments.ExecuteAll(context.Background(), cs, artifact, matrices, opt)
	if err != nil {
		return err
	}

	if artifact == "all" {
		if err := renderArtifact("table2", m, outdir); err != nil {
			return err
		}
	}
	if err := fig6(cs, outdir); err != nil {
		return err
	}
	if artifact == "all" {
		if err := renderArtifact("ablations", m, outdir); err != nil {
			return err
		}
	}
	return writeManifest(m, out)
}

func fig5(cs *experiments.CaseStudy, outdir string) error {
	fmt.Printf("== Figure 5: PPO training progress (%d timesteps) ==\n", cs.TrainSteps)
	_, hist, err := cs.TrainRL(nil)
	if err != nil {
		return err
	}
	reward, entropy := experiments.Fig5Series(hist)
	stride := len(hist)/20 + 1
	fmt.Printf("%10s %16s %14s\n", "timesteps", "mean_ep_reward", "entropy_loss")
	for i := 0; i < len(hist); i += stride {
		fmt.Printf("%10.0f %16.4f %14.3f\n", reward.X[i], reward.Y[i], entropy.Y[i])
	}
	last := len(hist) - 1
	fmt.Printf("%10.0f %16.4f %14.3f  (final)\n", reward.X[last], reward.Y[last], entropy.Y[last])
	return writeArtifactFile(outdir, "fig5_training.csv", func(w io.Writer) error {
		return stats.WriteSeriesCSV(w, reward, entropy)
	})
}

func fig6(cs *experiments.CaseStudy, outdir string) error {
	fmt.Printf("== Figure 6: fidelity distributions per strategy (%d jobs) ==\n", cs.Workload.Synthetic.N)
	runs := make(map[string]*experiments.ModeRun, len(experiments.Modes))
	for _, mode := range experiments.Modes {
		run, err := cs.RunMode(mode)
		if err != nil {
			return err
		}
		runs[mode] = run
	}
	hists := experiments.Fig6Histograms(runs, 40)
	for _, mode := range experiments.Modes {
		hist := hists[mode]
		sum := stats.Summarize(runs[mode].Fidelities)
		fmt.Printf("\n-- %s (mean %.4f, std %.4f, mode-of-dist %.4f) --\n",
			mode, sum.Mean, sum.Std, hist.Mode())
		if err := hist.RenderASCII(os.Stdout, 60); err != nil {
			return err
		}
		if err := writeArtifactFile(outdir, "fig6_"+mode+".csv", hist.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

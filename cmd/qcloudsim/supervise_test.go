package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
)

// quietBackoff neuters the supervisor's real restart sleeps for the
// duration of a test.
func quietBackoff(t *testing.T) {
	t.Helper()
	saved := superviseBackoff.Sleep
	superviseBackoff.Sleep = func(context.Context, time.Duration) error { return nil }
	t.Cleanup(func() { superviseBackoff.Sleep = saved })
}

// spacedJobs builds a workload with inter-arrival gaps long enough for
// the broker to drain between arrivals, so periodic checkpoint ticks
// find quiescent points and recovery resumes mid-stream instead of
// replaying from scratch.
func spacedJobs(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	cfg.MeanInterarrival = 50000
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func superviseOpts(dir, name string) serveOptions {
	return serveOptions{
		cloud:          speedCloud(),
		window:         64,
		checkpointPath: filepath.Join(dir, name+".ckpt"),
		// Half the spaced workload's mean gap: every arrival is preceded
		// by a quiescent tick, without drowning the run in file writes.
		checkpointEvery: 25000,
		export:          filepath.Join(dir, name+".csv"),
	}
}

func crashInjector(t *testing.T, after, max int) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Layer: faults.LayerIngest, Op: faults.OpLine, Kind: faults.KindCrash, After: after, Max: max},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// recoveryEvents parses the recovery lines off a stderr stream.
func recoveryEvents(t *testing.T, errOut string) []recoveryEvent {
	t.Helper()
	var evs []recoveryEvent
	for _, line := range strings.Split(strings.TrimSpace(errOut), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var ev recoveryEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		if ev.Event == "crash" || ev.Event == "recover" {
			evs = append(evs, ev)
		}
	}
	return evs
}

// countEvents tallies recovery events of each kind on a stderr stream.
func countEvents(t *testing.T, errOut string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, ev := range recoveryEvents(t, errOut) {
		counts[ev.Event]++
	}
	return counts
}

// The headline robustness gate: a broker killed mid-stream by an
// induced crash, restarted by the supervisor from its latest atomic
// checkpoint, must export completed-job records byte-identical to an
// uninterrupted run over the same stream.
func TestSupervisedRecoveryEquivalence(t *testing.T) {
	checkRecoveryEquivalence(t, speedCloud())
}

// Under calibration drift the restarted broker replays the
// checkpoint's drift steps, so its records still match.
func TestSupervisedDriftRecoveryEquivalence(t *testing.T) {
	drifting := speedCloud()
	drifting.policy = "fidelity"
	drifting.cfg.Drift = core.DriftConfig{IntervalS: 300, Rel: 0.3, Seed: 5}
	checkRecoveryEquivalence(t, drifting)
}

func checkRecoveryEquivalence(t *testing.T, c cloud) {
	quietBackoff(t)
	jobs := spacedJobs(t, 40)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	clean := superviseOpts(dir, "clean")
	clean.cloud = c
	var cleanOut, cleanErr bytes.Buffer
	if err := runServe(context.Background(), clean, bytes.NewReader(stream.Bytes()), &cleanOut, &cleanErr); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	faulted := superviseOpts(dir, "faulted")
	faulted.cloud = c
	var out, errOut bytes.Buffer
	err := runSupervised(context.Background(), faulted, crashInjector(t, 12, 1),
		bytes.NewReader(stream.Bytes()), &out, &errOut)
	if err != nil {
		t.Fatalf("supervised run: %v\nstderr:\n%s", err, errOut.String())
	}

	evs := recoveryEvents(t, errOut.String())
	counts := countEvents(t, errOut.String())
	if counts["crash"] != 1 || counts["recover"] != 1 {
		t.Fatalf("recovery events = %v, want one crash and one recover\nstderr:\n%s", counts, errOut.String())
	}
	for _, ev := range evs {
		if ev.Event == "recover" && ev.Pos == 0 {
			t.Fatalf("recovery restarted from stream position 0 — no durable checkpoint preceded the crash; events: %+v", evs)
		}
	}

	want, err := os.ReadFile(clean.export)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(faulted.export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered export diverges from uninterrupted run:\nclean:\n%s\nrecovered:\n%s", want, got)
	}
}

// A broker that crashes at the same stream position on every restart
// makes no durable progress; the supervisor's crash-loop breaker must
// give up with a diagnosis instead of restarting forever.
func TestSupervisedCrashLoopBreaker(t *testing.T) {
	quietBackoff(t)
	jobs := testJobs(t, 8)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := runSupervised(context.Background(), superviseOpts(t.TempDir(), "loop"),
		crashInjector(t, 0, 0), bytes.NewReader(stream.Bytes()), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "crash-loop breaker") {
		t.Fatalf("crash loop = %v, want breaker error", err)
	}
	if counts := countEvents(t, errOut.String()); counts["crash"] != superviseBackoff.MaxAttempts {
		t.Fatalf("crash events = %v, want %d (one per exhausted attempt)", counts, superviseBackoff.MaxAttempts)
	}
}

// Two supervised runs with the identical plan and stream must produce
// the identical fault sequence and identical exports — the injector's
// determinism witness, end to end.
func TestSupervisedFaultSequenceDeterminism(t *testing.T) {
	quietBackoff(t)
	jobs := testJobs(t, 30)
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	run := func(name string) ([]faults.Event, []byte) {
		inj := crashInjector(t, 9, 1)
		var out, errOut bytes.Buffer
		err := runSupervised(context.Background(), superviseOpts(dir, name), inj,
			bytes.NewReader(stream.Bytes()), &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v\nstderr:\n%s", name, err, errOut.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		return inj.Events(), data
	}
	ev1, csv1 := run("a")
	ev2, csv2 := run("b")
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("fault sequences diverge:\n%+v\nvs\n%+v", ev1, ev2)
	}
	if len(ev1) == 0 {
		t.Fatal("plan never fired")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("exports diverge across identical supervised runs")
	}
}

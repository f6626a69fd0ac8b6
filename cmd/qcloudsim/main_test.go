package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// mkSet simulates flag.Visit output for a set of explicitly-passed flags.
func mkSet(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

func TestValidateFlagsCombinations(t *testing.T) {
	type args struct {
		set              map[string]bool
		args             []string
		serve            bool
		polName          string
		rlModel          string
		listen           string
		httpAddr         string
		admitPolicy      string
		admitMaxQueue    int
		admitTenantQuota int
		admitRetryAfter  float64
		admitRate        float64
		admitBurst       float64
		timeScale        float64
		window           int
		metricsEvery     float64
		checkpointPath   string
		checkpointEvery  float64
		resume           bool
		faultPlan        string
		cpuProfile       string
		memProfile       string
	}
	ok := func(a args) args { // fill defaults
		if a.polName == "" {
			a.polName = "speed"
		}
		if a.window == 0 {
			a.window = 512
		}
		return a
	}
	cases := []struct {
		name    string
		a       args
		wantErr string // empty = accept
	}{
		{"defaults", ok(args{set: mkSet()}), ""},
		{"positional args", ok(args{set: mkSet(), args: []string{"extra"}}), "positional"},
		{"jobs alone", ok(args{set: mkSet("jobs")}), ""},
		{"jobs with n", ok(args{set: mkSet("jobs", "n")}), "-jobs replays a workload file"},
		{"jobs with seed", ok(args{set: mkSet("jobs", "seed")}), "-jobs replays a workload file"},
		{"jobs with seed and drift", ok(args{set: mkSet("jobs", "seed", "drift-interval")}), ""},
		{"jobs with interarrival", ok(args{set: mkSet("jobs", "interarrival")}), "-jobs replays a workload file"},
		{"jobs with policy", ok(args{set: mkSet("jobs", "policy")}), ""},
		{"rlmodel without rlbase", ok(args{set: mkSet("rlmodel"), polName: "speed"}), "only applies to -policy rlbase"},
		{"rlseed without rlbase", ok(args{set: mkSet("rlseed"), polName: "fidelity"}), "only applies to -policy rlbase"},
		{"rlbase without rlmodel", ok(args{set: mkSet("policy"), polName: "rlbase"}), "requires -rlmodel"},
		{"rlbase with rlmodel", ok(args{set: mkSet("policy", "rlmodel"), polName: "rlbase", rlModel: "m.json"}), ""},
		{"policy oracle", ok(args{set: mkSet("policy"), polName: "oracle"}), ""},
		{"serve policy oracle", ok(args{set: mkSet("serve", "policy"), serve: true, polName: "oracle"}), ""},
		{"unknown policy", ok(args{set: mkSet("policy"), polName: "warp"}), "registered: " + strings.Join(policy.Names(), ", ")},
		{"rlseed with oracle", ok(args{set: mkSet("policy", "rlseed"), polName: "oracle"}), "only applies to -policy rlbase"},
		{"config alone", ok(args{set: mkSet("config")}), ""},
		{"config with export", ok(args{set: mkSet("config", "export")}), ""},
		{"config with n", ok(args{set: mkSet("config", "n")}), "-config specifies the whole simulation"},
		{"config with policy", ok(args{set: mkSet("config", "policy")}), "-config specifies the whole simulation"},
		{"serve flag without serve", ok(args{set: mkSet("window")}), "pass -serve with it"},
		{"checkpoint without serve", ok(args{set: mkSet("checkpoint"), checkpointPath: "x"}), "pass -serve with it"},
		{"serve defaults", ok(args{set: mkSet("serve"), serve: true}), ""},
		{"serve with jobs", ok(args{set: mkSet("serve", "jobs"), serve: true}), "configures a batch workload"},
		{"serve with n", ok(args{set: mkSet("serve", "n"), serve: true}), "configures a batch workload"},
		{"serve with config", ok(args{set: mkSet("serve", "config"), serve: true}), ""},
		{"serve config with checkpointing", ok(args{set: mkSet("serve", "config", "checkpoint", "checkpoint-every"), serve: true, checkpointPath: "cp.json", checkpointEvery: 50}), ""},
		{"serve config with policy", ok(args{set: mkSet("serve", "config", "policy"), serve: true}), "-config specifies the whole simulation"},
		{"serve config with drift", ok(args{set: mkSet("serve", "config", "drift-interval"), serve: true}), "-config specifies the whole simulation"},
		{"serve with drift", ok(args{set: mkSet("serve", "drift-interval"), serve: true}), ""},
		{"serve with drift magnitude", ok(args{set: mkSet("serve", "drift-interval", "drift-magnitude"), serve: true}), ""},
		{"serve with seed", ok(args{set: mkSet("serve", "seed"), serve: true}), "pass it with -drift-interval"},
		{"serve with seed and drift", ok(args{set: mkSet("serve", "seed", "drift-interval"), serve: true}), ""},
		{"serve with v", ok(args{set: mkSet("serve", "v"), serve: true}), "streams records"},
		{"serve bad listen", ok(args{set: mkSet("serve", "listen"), serve: true, listen: "9066"}), "not host:port"},
		{"serve listen without scale", ok(args{set: mkSet("serve", "listen"), serve: true, listen: "127.0.0.1:9066"}), "-time-scale > 0"},
		{"serve listen with scale", ok(args{set: mkSet("serve", "listen", "time-scale"), serve: true, listen: "127.0.0.1:9066", timeScale: 100}), ""},
		{"serve negative scale", ok(args{set: mkSet("serve", "time-scale"), serve: true, timeScale: -1}), "-time-scale"},
		{"serve zero window", args{set: mkSet("serve", "window"), serve: true, polName: "speed"}, "-window"},
		{"serve checkpoint-every without path", ok(args{set: mkSet("serve", "checkpoint-every"), serve: true, checkpointEvery: 50}), "needs -checkpoint"},
		{"serve resume without path", ok(args{set: mkSet("serve", "resume"), serve: true, resume: true}), "needs -checkpoint"},
		{"serve checkpointing", ok(args{set: mkSet("serve", "checkpoint", "checkpoint-every"), serve: true, checkpointPath: "cp.json", checkpointEvery: 50}), ""},
		{"http without serve", ok(args{set: mkSet("http"), httpAddr: "127.0.0.1:8080"}), "pass -serve with it"},
		{"serve bad http addr", ok(args{set: mkSet("serve", "http"), serve: true, httpAddr: "8080"}), "not host:port"},
		{"serve http logical", ok(args{set: mkSet("serve", "http"), serve: true, httpAddr: "127.0.0.1:0"}), ""},
		{"serve http realtime", ok(args{set: mkSet("serve", "http", "time-scale"), serve: true, httpAddr: "127.0.0.1:0", timeScale: 100}), ""},
		{"admit flag without policy", ok(args{set: mkSet("serve", "admit-max-queue"), serve: true, admitMaxQueue: 10}), "needs -admit-policy"},
		{"admit retry-after without policy", ok(args{set: mkSet("serve", "admit-retry-after"), serve: true, admitRetryAfter: 5}), "needs -admit-policy"},
		{"admit unknown policy", ok(args{set: mkSet("serve", "admit-policy"), serve: true, admitPolicy: "lru"}), "unknown -admit-policy"},
		{"admit reject without bound", ok(args{set: mkSet("serve", "admit-policy"), serve: true, admitPolicy: "reject"}), "-admit-max-queue > 0"},
		{"admit reject", ok(args{set: mkSet("serve", "admit-policy", "admit-max-queue"), serve: true, admitPolicy: "reject", admitMaxQueue: 10}), ""},
		{"admit shed", ok(args{set: mkSet("serve", "admit-policy", "admit-max-queue"), serve: true, admitPolicy: "shed", admitMaxQueue: 10}), ""},
		{"admit shed with tenant quota", ok(args{set: mkSet("serve", "admit-policy", "admit-max-queue", "admit-tenant-quota"), serve: true, admitPolicy: "shed", admitMaxQueue: 10, admitTenantQuota: 2}), "only applies to -admit-policy quota"},
		{"admit quota without bound", ok(args{set: mkSet("serve", "admit-policy"), serve: true, admitPolicy: "quota"}), "-admit-tenant-quota > 0"},
		{"admit quota", ok(args{set: mkSet("serve", "admit-policy", "admit-tenant-quota"), serve: true, admitPolicy: "quota", admitTenantQuota: 4}), ""},
		{"admit quota with max queue", ok(args{set: mkSet("serve", "admit-policy", "admit-tenant-quota", "admit-max-queue"), serve: true, admitPolicy: "quota", admitTenantQuota: 4, admitMaxQueue: 10}), "only applies to -admit-policy reject|shed"},
		{"admit negative retry-after", ok(args{set: mkSet("serve", "admit-policy", "admit-max-queue", "admit-retry-after"), serve: true, admitPolicy: "reject", admitMaxQueue: 10, admitRetryAfter: -1}), "-admit-retry-after"},
		{"admit-rate without serve", ok(args{set: mkSet("admit-rate"), admitRate: 2}), "pass -serve with it"},
		{"admit-rate alone", ok(args{set: mkSet("serve", "admit-rate"), serve: true, admitRate: 2}), ""},
		{"admit-rate zero", ok(args{set: mkSet("serve", "admit-rate"), serve: true, admitRate: 0}), "-admit-rate must be > 0"},
		{"admit-rate with quota policy", ok(args{set: mkSet("serve", "admit-policy", "admit-tenant-quota", "admit-rate"), serve: true, admitPolicy: "quota", admitTenantQuota: 4, admitRate: 2}), ""},
		{"admit-burst without rate", ok(args{set: mkSet("serve", "admit-burst"), serve: true, admitBurst: 4}), "pass -admit-rate with it"},
		{"admit-burst below one", ok(args{set: mkSet("serve", "admit-rate", "admit-burst"), serve: true, admitRate: 2, admitBurst: 0.5}), "-admit-burst must be >= 1"},
		{"admit-burst", ok(args{set: mkSet("serve", "admit-rate", "admit-burst"), serve: true, admitRate: 2, admitBurst: 4}), ""},
		{"fault-plan without serve", ok(args{set: mkSet("fault-plan"), faultPlan: "plan.json"}), "pass -serve with it"},
		{"fault-plan with serve", ok(args{set: mkSet("serve", "fault-plan"), serve: true, faultPlan: "plan.json"}), ""},
		{"cpuprofile", ok(args{set: mkSet("cpuprofile"), cpuProfile: filepath.Join(t.TempDir(), "cpu.prof")}), ""},
		{"cpuprofile unwritable", ok(args{set: mkSet("cpuprofile"), cpuProfile: filepath.Join(t.TempDir(), "missing", "cpu.prof")}), "-cpuprofile"},
		{"memprofile unwritable", ok(args{set: mkSet("serve", "memprofile"), serve: true, memProfile: filepath.Join(t.TempDir(), "missing", "mem.prof")}), "-memprofile"},
		{"config with profiles", ok(args{set: mkSet("config", "cpuprofile", "memprofile"), cpuProfile: filepath.Join(t.TempDir(), "cpu.prof"), memProfile: filepath.Join(t.TempDir(), "mem.prof")}), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.a.set, c.a.args, c.a.serve, c.a.polName, c.a.rlModel, c.a.listen, c.a.httpAddr,
				c.a.admitPolicy, c.a.admitMaxQueue, c.a.admitTenantQuota, c.a.admitRetryAfter, c.a.admitRate, c.a.admitBurst,
				c.a.timeScale, c.a.window, c.a.metricsEvery, c.a.checkpointPath, c.a.checkpointEvery, c.a.resume,
				c.a.faultPlan, c.a.cpuProfile, c.a.memProfile)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// speedCloud is the standard fleet under the speed policy with the
// default model: the cloud most serve tests run.
func speedCloud() cloud {
	return cloud{policy: "speed", fleetSeed: 2025, cfg: core.DefaultConfig()}
}

func testJobs(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// The deterministic serve loop must reproduce the batch runner's per-job
// records byte for byte when fed the equivalent NDJSON stream.
func TestServeLogicalMatchesBatch(t *testing.T) {
	jobs := testJobs(t, 40)

	// Batch reference records.
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	simEnv, err := core.NewQCloudSimEnv(env, fleet, policy.Speed{}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	simEnv.SubmitWorkload(jobs)
	if _, err := simEnv.Run(); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := simEnv.Records.WriteCSV(&batch); err != nil {
		t.Fatal(err)
	}

	// Broker service over the same workload as an NDJSON stream.
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(t.TempDir(), "serve.csv")
	var recordsOut, metricsOut bytes.Buffer
	err = runServe(context.Background(), serveOptions{
		cloud:        speedCloud(),
		window:       64,
		metricsEvery: 10000,
		export:       export,
	}, &stream, &recordsOut, &metricsOut)
	if err != nil {
		t.Fatalf("runServe: %v", err)
	}
	served, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), served) {
		t.Fatalf("served records diverge from batch:\nbatch:\n%s\nserved:\n%s", batch.Bytes(), served)
	}

	// The lifecycle stream carries one arrival, start, and finish line
	// per job, in valid JSON.
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(recordsOut.String()), "\n") {
		var l lifecycleLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad lifecycle line %q: %v", line, err)
		}
		events[l.Event]++
	}
	for _, ev := range []string{"arrival", "start", "finish"} {
		if events[ev] != 40 {
			t.Fatalf("%s lines = %d, want 40", ev, events[ev])
		}
	}

	// Metrics stream: every line parses, the final one reports the full
	// count with positive rolling throughput.
	mLines := strings.Split(strings.TrimSpace(metricsOut.String()), "\n")
	var last metricsLine
	for _, line := range mLines {
		if !strings.HasPrefix(line, "{") {
			continue // drain notice
		}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
	}
	if last.Finished != 40 || last.Active != 0 || last.QueueDepth != 0 {
		t.Fatalf("final metrics = %+v", last)
	}
	if last.Window.Count == 0 || last.Window.Throughput <= 0 {
		t.Fatalf("final window = %+v", last.Window)
	}
}

// A two_qubit_gates count above 2^53 is a decode error on its stream
// line, refused before the broker sees the job: its fidelity split
// would overflow an int and crash the broker.
func TestServeRefusesHugeTwoQubitGates(t *testing.T) {
	line := `{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"two_qubit_gates":9223372036854775807}` + "\n"
	var out, errOut bytes.Buffer
	err := runServe(context.Background(), serveOptions{
		cloud:  cloud{policy: "fair", fleetSeed: 2025, cfg: core.DefaultConfig()},
		window: 64,
	}, strings.NewReader(line), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "stream line 1:") || !strings.Contains(err.Error(), "two-qubit gates") {
		t.Fatalf("runServe = %v, want a decode error naming stream line 1", err)
	}
	if out.Len() != 0 || strings.Contains(errOut.String(), "crash") {
		t.Fatalf("refused job reached the broker:\nstdout: %s\nstderr: %s", out.String(), errOut.String())
	}
}

// A serve session stopped at a checkpoint continues in a new process
// fed the whole stream: it skips the lines the checkpoint covers and
// finishes the rest. The first session exported nothing, so the
// checkpoint has no export length, and the resumed -export starts a new
// file with the header.
func TestServeCheckpointResume(t *testing.T) {
	jobs := testJobs(t, 20)
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "broker.ckpt")

	var seg1 bytes.Buffer
	if err := job.WriteNDJSON(&seg1, jobs[:10]); err != nil {
		t.Fatal(err)
	}
	var out1, errOut1 bytes.Buffer
	opts := serveOptions{
		cloud:          speedCloud(),
		window:         64,
		checkpointPath: cpPath,
	}
	if err := runServe(context.Background(), opts, &seg1, &out1, &errOut1); err != nil {
		t.Fatalf("segment 1: %v", err)
	}
	f, err := os.Open(cpPath)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	cp, err := core.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Finished != 10 {
		t.Fatalf("checkpoint finished = %d", cp.Finished)
	}
	// -checkpoint alone feeds the job index, so the snapshot carries the
	// status API's history for a resumed -http process.
	if cp.Jobs == nil || len(cp.Jobs.Entries) != 10 {
		t.Fatalf("checkpoint job index = %+v, want the 10 finished jobs", cp.Jobs)
	}

	var whole bytes.Buffer
	if err := job.WriteNDJSON(&whole, jobs); err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(dir, "seg2.csv")
	opts.resume = true
	opts.export = export
	var out2, errOut2 bytes.Buffer
	if err := runServe(context.Background(), opts, &whole, &out2, &errOut2); err != nil {
		t.Fatalf("segment 2: %v", err)
	}
	if !strings.Contains(errOut2.String(), "20 jobs finished") {
		t.Fatalf("resumed session should report lifetime total, stderr:\n%s", errOut2.String())
	}
	data, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(strings.TrimSpace(string(data)), "\n"); rows != 10 || !strings.HasPrefix(string(data), "job_id,") {
		t.Fatalf("segment-2 export has %d data rows, want the header and 10:\n%s", rows, data)
	}
	if strings.Count(out2.String(), `"event":"arrival"`) != 10 {
		t.Fatalf("resumed session admitted other than the 10 uncovered lines:\n%s", out2.String())
	}
}

// A resumed real-time broker runs its clock on from the checkpoint's
// sim_now at -time-scale sim seconds per wall second; it does not wait
// for wall time × scale to catch up with the checkpoint.
func TestResumedRealTimeClockAdvances(t *testing.T) {
	dir := t.TempDir()
	opts := serveOptions{cloud: speedCloud(), window: 64, checkpointPath: filepath.Join(dir, "rt.ckpt")}
	if err := runServe(context.Background(), opts, bytes.NewReader(ndjson(t, spacedJobs(t, 3))), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(opts.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 100
	// Wall time × scale would take over a minute to reach the
	// checkpoint's clock.
	if cp.SimNow < 60*scale {
		t.Fatalf("checkpoint at sim %g, want a later one", cp.SimNow)
	}
	opts.resume, opts.timeScale, opts.httpAddr = true, scale, "127.0.0.1:0"
	addrCh := make(chan net.Addr, 1)
	opts.onHTTP = func(a net.Addr) { addrCh <- a }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, opts, strings.NewReader(""), io.Discard, io.Discard) }()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("resumed run ended before serving: %v", err)
	}
	simNow := func() float64 {
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			SimNow float64 `json:"sim_now"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.SimNow
	}
	first := simNow()
	if first < cp.SimNow {
		t.Fatalf("resumed clock at %g, before the checkpoint's %g", first, cp.SimNow)
	}
	deadline := time.Now().Add(5 * time.Second)
	for simNow() <= first {
		if time.Now().After(deadline) {
			t.Fatalf("resumed real-time clock stayed at %g for 5 s", first)
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("runServe: %v", err)
	}
}

// The TCP front end must admit jobs from a live connection and drain
// them on shutdown.
func TestServeTCP(t *testing.T) {
	jobs := testJobs(t, 3)
	addrCh := make(chan net.Addr, 1)
	export := filepath.Join(t.TempDir(), "tcp.csv")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out, errOut bytes.Buffer
		done <- runServe(ctx, serveOptions{
			cloud:     speedCloud(),
			listen:    "127.0.0.1:0",
			timeScale: 1000,
			window:    16,
			export:    export,
			onListen:  func(a net.Addr) { addrCh <- a },
		}, strings.NewReader(""), &out, &errOut)
	}()
	addr := <-addrCh
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Give the accept goroutine time to deliver, then request shutdown;
	// the drain completes the admitted jobs regardless of wall time.
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("runServe: %v", err)
	}
	data, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(strings.TrimSpace(string(data)), "\n"); rows != 3 {
		t.Fatalf("TCP export has %d data rows, want 3:\n%s", rows, data)
	}
	// Every TCP-delivered job is stamped with connection provenance.
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		if !strings.Contains(line, ",tcp,") {
			t.Fatalf("TCP export row missing tcp ingest provenance: %q", line)
		}
	}
}

// stripProvenance drops the trailing source,remote,conn_id CSV columns,
// leaving the simulation-outcome columns that must match batch exactly.
func stripProvenance(t *testing.T, csv []byte) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	for i, line := range lines {
		cols := strings.Split(line, ",")
		if len(cols) < 14 {
			t.Fatalf("row %d has %d columns, want >= 14: %q", i, len(cols), line)
		}
		lines[i] = strings.Join(cols[:len(cols)-3], ",")
	}
	return strings.Join(lines, "\n") + "\n"
}

// A workload delivered over the HTTP API in logical time must reproduce
// the batch run byte-for-byte, modulo the appended ingest provenance
// columns. This is the in-process version of CI's http-smoke gate.
func TestServeHTTPLogicalMatchesBatch(t *testing.T) {
	jobs := testJobs(t, 30)

	// Batch reference records.
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	simEnv, err := core.NewQCloudSimEnv(env, fleet, policy.Speed{}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	simEnv.SubmitWorkload(jobs)
	if _, err := simEnv.Run(); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := simEnv.Records.WriteCSV(&batch); err != nil {
		t.Fatal(err)
	}

	// Serve with the HTTP control plane on logical time, stdin empty.
	addrCh := make(chan net.Addr, 1)
	export := filepath.Join(t.TempDir(), "http.csv")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out, errOut bytes.Buffer
		done <- runServe(ctx, serveOptions{
			cloud:    speedCloud(),
			httpAddr: "127.0.0.1:0",
			window:   64,
			export:   export,
			onHTTP:   func(a net.Addr) { addrCh <- a },
		}, strings.NewReader(""), &out, &errOut)
	}()
	base := "http://" + (<-addrCh).String()

	var stream bytes.Buffer
	if err := job.WriteNDJSON(&stream, jobs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/x-ndjson", &stream)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
	}

	// The service stays up until interrupted. In logical time the clock
	// only advances on submissions, so trailing jobs complete during the
	// shutdown drain; confirm the batch was admitted, then stop.
	var st struct {
		Admitted int `json:"admitted"`
	}
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Admitted != len(jobs) {
		t.Fatalf("admitted = %d, want %d", st.Admitted, len(jobs))
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("runServe: %v", err)
	}

	served, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if stripProvenance(t, served) != stripProvenance(t, batch.Bytes()) {
		t.Fatalf("HTTP-served records diverge from batch:\nbatch:\n%s\nserved:\n%s", batch.Bytes(), served)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(served)), "\n")[1:] {
		if !strings.Contains(line, ",http,") {
			t.Fatalf("HTTP export row missing http ingest provenance: %q", line)
		}
	}
}

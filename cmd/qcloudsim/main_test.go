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
	"repro/internal/runspec"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

func TestValidateFlagsCombinations(t *testing.T) {
	serve := func(argv ...string) []string { return append([]string{"-serve"}, argv...) }
	cases := []struct {
		name    string
		argv    []string
		wantErr string // empty = accept
	}{
		{"defaults", nil, ""},
		{"positional args", []string{"extra"}, "positional"},
		{"jobs alone", []string{"-jobs", "w.csv"}, ""},
		{"jobs with n", []string{"-jobs", "w.csv", "-n", "5"}, "-jobs replays a workload file"},
		{"jobs with seed", []string{"-jobs", "w.csv", "-seed", "3"}, "-jobs replays a workload file"},
		{"jobs with seed and drift", []string{"-jobs", "w.csv", "-seed", "3", "-drift-interval", "60"}, ""},
		{"jobs with interarrival", []string{"-jobs", "w.csv", "-interarrival", "3"}, "-jobs replays a workload file"},
		{"jobs with policy", []string{"-jobs", "w.csv", "-policy", "fair"}, ""},
		{"rlmodel without rlbase", []string{"-rlmodel", "m.json"}, "only applies to -policy rlbase"},
		{"rlseed without rlbase", []string{"-rlseed", "3", "-policy", "fidelity"}, "only applies to -policy rlbase"},
		{"rlbase without rlmodel", []string{"-policy", "rlbase"}, "requires -rlmodel"},
		{"rlbase with rlmodel", []string{"-policy", "rlbase", "-rlmodel", "m.json"}, ""},
		{"policy oracle", []string{"-policy", "oracle"}, ""},
		{"serve policy oracle", serve("-policy", "oracle"), ""},
		{"unknown policy", []string{"-policy", "warp"}, "registered: " + strings.Join(policy.Names(), ", ")},
		{"rlseed with oracle", []string{"-policy", "oracle", "-rlseed", "3"}, "only applies to -policy rlbase"},
		{"config alone", []string{"-config", "c.json"}, ""},
		{"config with export", []string{"-config", "c.json", "-export", "r.csv"}, ""},
		{"config with n", []string{"-config", "c.json", "-n", "5"}, "-config specifies the whole simulation"},
		{"config with policy", []string{"-config", "c.json", "-policy", "fair"}, "-config specifies the whole simulation"},
		{"serve flag without serve", []string{"-window", "64"}, "pass -serve with it"},
		{"checkpoint without serve", []string{"-checkpoint", "x"}, "pass -serve with it"},
		{"serve defaults", serve(), ""},
		{"serve with jobs", serve("-jobs", "w.csv"), "configures a batch workload"},
		{"serve with n", serve("-n", "5"), "configures a batch workload"},
		{"serve with config", serve("-config", "c.json"), ""},
		{"serve config with checkpointing", serve("-config", "c.json", "-checkpoint", "cp.json", "-checkpoint-every", "50"), ""},
		{"serve config with policy", serve("-config", "c.json", "-policy", "fair"), "-config specifies the whole simulation"},
		{"serve config with drift", serve("-config", "c.json", "-drift-interval", "60"), "-config specifies the whole simulation"},
		{"serve with drift", serve("-drift-interval", "60"), ""},
		{"serve with drift magnitude", serve("-drift-interval", "60", "-drift-magnitude", "0.5"), ""},
		{"drift magnitude without interval", []string{"-n", "20", "-drift-magnitude", "0.5"}, "pass -drift-interval with it"},
		{"serve drift magnitude without interval", serve("-drift-magnitude", "0.5"), "pass -drift-interval with it"},
		{"serve with seed", serve("-seed", "3"), "pass it with -drift-interval"},
		{"serve with seed and drift", serve("-seed", "3", "-drift-interval", "60"), ""},
		{"serve with v", serve("-v"), "streams records"},
		{"serve bad listen", serve("-listen", "9066"), "not host:port"},
		{"serve listen without scale", serve("-listen", "127.0.0.1:9066"), "-time-scale > 0"},
		{"serve listen with scale", serve("-listen", "127.0.0.1:9066", "-time-scale", "100"), ""},
		{"serve negative scale", serve("-time-scale", "-1"), "-time-scale"},
		{"serve zero window", serve("-window", "0"), "-window"},
		{"serve checkpoint-every without path", serve("-checkpoint-every", "50"), "needs -checkpoint"},
		{"serve resume without path", serve("-resume"), "needs -checkpoint"},
		{"serve checkpointing", serve("-checkpoint", "cp.json", "-checkpoint-every", "50"), ""},
		{"http without serve", []string{"-http", "127.0.0.1:8080"}, "pass -serve with it"},
		{"serve bad http addr", serve("-http", "8080"), "not host:port"},
		{"serve http logical", serve("-http", "127.0.0.1:0"), ""},
		{"serve http realtime", serve("-http", "127.0.0.1:0", "-time-scale", "100"), ""},
		{"admit flag without policy", serve("-admit-max-queue", "10"), "needs -admit-policy"},
		{"admit retry-after without policy", serve("-admit-retry-after", "5"), "needs -admit-policy"},
		{"admit unknown policy", serve("-admit-policy", "lru"), "unknown -admit-policy"},
		{"admit reject without bound", serve("-admit-policy", "reject"), "-admit-max-queue > 0"},
		{"admit reject", serve("-admit-policy", "reject", "-admit-max-queue", "10"), ""},
		{"admit shed", serve("-admit-policy", "shed", "-admit-max-queue", "10"), ""},
		{"admit shed with tenant quota", serve("-admit-policy", "shed", "-admit-max-queue", "10", "-admit-tenant-quota", "2"), "only applies to -admit-policy quota"},
		{"admit quota without bound", serve("-admit-policy", "quota"), "-admit-tenant-quota > 0"},
		{"admit quota", serve("-admit-policy", "quota", "-admit-tenant-quota", "4"), ""},
		{"admit quota with max queue", serve("-admit-policy", "quota", "-admit-tenant-quota", "4", "-admit-max-queue", "10"), "only applies to -admit-policy reject|shed"},
		{"admit negative retry-after", serve("-admit-policy", "reject", "-admit-max-queue", "10", "-admit-retry-after", "-1"), "-admit-retry-after"},
		{"admit-rate without serve", []string{"-admit-rate", "2"}, "pass -serve with it"},
		{"admit-rate alone", serve("-admit-rate", "2"), ""},
		{"admit-rate zero", serve("-admit-rate", "0"), "-admit-rate must be > 0"},
		{"admit-rate with quota policy", serve("-admit-policy", "quota", "-admit-tenant-quota", "4", "-admit-rate", "2"), ""},
		{"admit-burst without rate", serve("-admit-burst", "4"), "pass -admit-rate with it"},
		{"admit-burst below one", serve("-admit-rate", "2", "-admit-burst", "0.5"), "-admit-burst must be >= 1"},
		{"admit-burst", serve("-admit-rate", "2", "-admit-burst", "4"), ""},
		{"fault-plan without serve", []string{"-fault-plan", "plan.json"}, "pass -serve with it"},
		{"fault-plan with serve", serve("-fault-plan", "plan.json"), ""},
		{"cpuprofile", []string{"-cpuprofile", filepath.Join(t.TempDir(), "cpu.prof")}, ""},
		{"cpuprofile unwritable", []string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.prof")}, "-cpuprofile"},
		{"memprofile unwritable", serve("-memprofile", filepath.Join(t.TempDir(), "missing", "mem.prof")), "-memprofile"},
		{"config with profiles", []string{"-config", "c.json", "-cpuprofile", filepath.Join(t.TempDir(), "cpu.prof"), "-memprofile", filepath.Join(t.TempDir(), "mem.prof")}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseArgs(c.argv, io.Discard)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not mention %q", err, c.wantErr)
			}
		})
	}
}

// A command line with several conflicting flags is refused naming the
// first of them in name order, the same one on every run.
func TestValidateFlagsNamesFirstConflict(t *testing.T) {
	for _, c := range []struct {
		argv []string
		want string
	}{
		{[]string{"-config", "x.json", "-n", "5", "-interarrival", "3", "-fleet-seed", "4"},
			"-config specifies the whole simulation; -fleet-seed conflicts with it"},
		{[]string{"-serve", "-n", "5", "-jobs", "a.csv", "-interarrival", "3"},
			"-serve ingests jobs from the stream; -interarrival configures a batch workload and conflicts with it"},
	} {
		for range 20 {
			if _, err := parseArgs(c.argv, io.Discard); err == nil || err.Error() != c.want {
				t.Fatalf("%v: error %v, want %q", c.argv, err, c.want)
			}
		}
	}
}

// Every name in a flag list is a defined flag: a typo would silently
// disable the check that list drives.
func TestFlagListsNameRealFlags(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range slices.Concat(serveFlags, configFlags) {
		if o.fs.Lookup(f) == nil {
			t.Errorf("flag list names -%s, which is not defined", f)
		}
	}
}

// The usage lists every flag with the name, default and help text the
// command has always had (testdata/usage.golden is the -h output from
// before the flags moved onto a private FlagSet).
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	o.fs.SetOutput(&got)
	o.fs.PrintDefaults()
	if got.String() != string(want) {
		t.Fatalf("usage drifted from testdata/usage.golden:\n%s", got.String())
	}
}

// speedCloud is the standard fleet under the speed policy with the
// default model: the cloud most serve tests run.
func speedCloud() runspec.Run {
	return runspec.Run{Policy: "speed", FleetSeed: 2025, Model: core.DefaultConfig()}
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
		run:          speedCloud(),
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
		run:    runspec.Run{Policy: "fair", FleetSeed: 2025, Model: core.DefaultConfig()},
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
		run:            speedCloud(),
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
	opts := serveOptions{run: speedCloud(), window: 64, checkpointPath: filepath.Join(dir, "rt.ckpt")}
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
			run:       speedCloud(),
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
			run:      speedCloud(),
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

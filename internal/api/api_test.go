package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

func testWorkload(t *testing.T, n int) []*job.QJob {
	t.Helper()
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.Seed = 7
	jobs, err := job.Synthetic(cfg)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return jobs
}

// batchCSV runs the goroutine-based batch simulator and exports its
// per-job records — the reference the HTTP path must reproduce.
func batchCSV(t *testing.T, jobs []*job.QJob, mkPol func() policy.Policy, cfg core.Config) []byte {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewQCloudSimEnv(env, fleet, mkPol(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(jobs)
	if _, err := e.Run(); err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	var buf bytes.Buffer
	if err := e.Records.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveStack is a broker + index + gateway + HTTP test server sharing one
// live simulation.
type liveStack struct {
	rec *records.Manager
	idx *core.JobIndex
	gw  *Gateway
	ts  *httptest.Server
}

func newLiveStack(t *testing.T, mkPol func() policy.Policy, cfg core.Config, adm core.AdmissionConfig) *liveStack {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	rec := records.NewManager()
	idx, err := core.NewJobIndex(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(env, fleet, mkPol(), cfg, core.MultiRecorder{core.ManagerRecorder{M: rec}, idx}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetAdmission(adm); err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(b, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(gw))
	t.Cleanup(ts.Close)
	return &liveStack{rec: rec, idx: idx, gw: gw, ts: ts}
}

func (s *liveStack) post(t *testing.T, jobs []*job.QJob) (*http.Response, SubmitResponse) {
	t.Helper()
	var body bytes.Buffer
	if err := job.WriteNDJSON(&body, jobs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return resp, sr
}

func (s *liveStack) getJSON(t *testing.T, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

// stripProvenance drops the trailing source,remote,conn_id columns from
// every CSV row, leaving the simulation outcome columns the batch and
// HTTP paths must agree on byte-for-byte. Safe to split on commas: no
// exported field quotes one (device_names joins with "+").
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

// httpCSV submits the whole workload over HTTP against a logical-time
// gateway, drains, and exports the per-job records.
func httpCSV(t *testing.T, jobs []*job.QJob, mkPol func() policy.Policy, cfg core.Config) []byte {
	t.Helper()
	s := newLiveStack(t, mkPol, cfg, core.AdmissionConfig{})
	resp, sr := s.post(t, jobs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
	}
	if sr.Accepted != len(jobs) || sr.Rejected != 0 {
		t.Fatalf("submit response = %+v, want all %d accepted", sr, len(jobs))
	}
	if _, err := s.gw.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var buf bytes.Buffer
	if err := s.rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// HTTP submission in logical time must replay the batch simulation
// byte-identically, for every scheduling policy. Only the appended
// ingest provenance columns — stamped "http" server-side — may differ.
func TestHTTPSubmitMatchesBatch(t *testing.T) {
	jobs := testWorkload(t, 60)
	cases := []struct {
		name  string
		mkPol func() policy.Policy
	}{
		{"speed", func() policy.Policy { return policy.Speed{} }},
		{"fair", func() policy.Policy { return policy.Fair{} }},
		{"fidelity", func() policy.Policy { return policy.Fidelity{} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			batch := batchCSV(t, jobs, c.mkPol, cfg)
			http := httpCSV(t, jobs, c.mkPol, cfg)
			if got, want := stripProvenance(t, http), stripProvenance(t, batch); got != want {
				t.Fatalf("HTTP records diverge from batch:\nbatch:\n%s\nhttp:\n%s", want, got)
			}
			// Provenance is the only divergence: batch rows end with
			// three empty cells, HTTP rows carry source/remote/conn_id.
			if !strings.Contains(string(http), ",http,") {
				t.Fatal("HTTP rows missing http ingest provenance")
			}
			if !strings.Contains(string(batch), ",,,") {
				t.Fatal("batch rows should leave provenance columns empty")
			}
		})
	}
}

// The RL policy consumes an RNG stream on every placement; identity here
// proves the HTTP path drives the policy exactly like batch.
func TestHTTPSubmitMatchesBatchRLBase(t *testing.T) {
	jobs := testWorkload(t, 40)
	trained := rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	mkPol := func() policy.Policy { return rlsched.NewRLPolicy(trained, 11) }
	cfg := core.DefaultConfig()
	batch := batchCSV(t, jobs, mkPol, cfg)
	http := httpCSV(t, jobs, mkPol, cfg)
	if stripProvenance(t, http) != stripProvenance(t, batch) {
		t.Fatal("rlbase HTTP records diverge from batch")
	}
}

// Splitting one workload across many POSTs must not change the
// simulation: batches are submitted atomically and in order.
func TestHTTPSubmitBatchSplitInvariance(t *testing.T) {
	jobs := testWorkload(t, 30)
	cfg := core.DefaultConfig()
	mkPol := func() policy.Policy { return policy.Speed{} }
	whole := httpCSV(t, jobs, mkPol, cfg)

	s := newLiveStack(t, mkPol, cfg, core.AdmissionConfig{})
	for i := 0; i < len(jobs); i += 7 {
		end := min(i+7, len(jobs))
		if resp, _ := s.post(t, jobs[i:end]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunk POST = %d", resp.StatusCode)
		}
	}
	if _, err := s.gw.Drain(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if stripProvenance(t, buf.Bytes()) != stripProvenance(t, whole) {
		t.Fatal("chunked HTTP submission diverges from single-batch submission")
	}
}

func mkWide(id, tenant string, arrival float64) *job.QJob {
	return &job.QJob{ID: id, Tenant: tenant, NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750, ArrivalTime: arrival}
}

// A tenant over quota gets 429 with Retry-After; the decision lands in
// the admission counters and the dropped job is queryable.
func TestHTTPAdmissionQuota429(t *testing.T) {
	s := newLiveStack(t,
		func() policy.Policy { return policy.Speed{} },
		core.DefaultConfig(),
		core.AdmissionConfig{Policy: core.AdmitQuota, TenantQuota: 1, RetryAfterS: 30},
	)
	if resp, sr := s.post(t, []*job.QJob{mkWide("q1", "acme", 0)}); resp.StatusCode != http.StatusAccepted || sr.Accepted != 1 {
		t.Fatalf("first job: status %d, %+v", resp.StatusCode, sr)
	}
	resp, sr := s.post(t, []*job.QJob{mkWide("q2", "acme", 0)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want 30", got)
	}
	if sr.Rejected != 1 || sr.Results[0].Reason != core.DropTenantQuota {
		t.Fatalf("submit response = %+v", sr)
	}

	var jv JobView
	if resp := s.getJSON(t, "/v1/jobs/q2", &jv); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET dropped job = %d", resp.StatusCode)
	}
	if jv.State != "dropped" || jv.DropReason != core.DropTenantQuota || jv.Source != "http" {
		t.Fatalf("dropped job view = %+v", jv)
	}

	var m Metrics
	s.getJSON(t, "/v1/metrics", &m)
	if m.Admission.RejectedQuota != 1 {
		t.Fatalf("metrics admission counters = %+v", m.Admission)
	}

	// A different tenant is unaffected.
	if resp, _ := s.post(t, []*job.QJob{mkWide("q3", "other", 0)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant POST = %d, want 202", resp.StatusCode)
	}
	if _, err := s.gw.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A mixed batch — some admitted, some refused — reports 202 with
// per-job outcomes.
func TestHTTPAdmissionMixedBatch(t *testing.T) {
	s := newLiveStack(t,
		func() policy.Policy { return policy.Speed{} },
		core.DefaultConfig(),
		core.AdmissionConfig{Policy: core.AdmitQuota, TenantQuota: 1, RetryAfterS: 5},
	)
	resp, sr := s.post(t, []*job.QJob{mkWide("m1", "a", 0), mkWide("m2", "a", 0), mkWide("m3", "b", 0)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mixed POST = %d, want 202", resp.StatusCode)
	}
	if sr.Accepted != 2 || sr.Rejected != 1 || !sr.Results[0].Admitted || sr.Results[1].Admitted || !sr.Results[2].Admitted {
		t.Fatalf("mixed response = %+v", sr)
	}
	if _, err := s.gw.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPJobLifecycleAndStatus(t *testing.T) {
	s := newLiveStack(t, func() policy.Policy { return policy.Speed{} }, core.DefaultConfig(), core.AdmissionConfig{})
	jobs := testWorkload(t, 8)
	s.post(t, jobs)
	if _, err := s.gw.Drain(); err != nil {
		t.Fatal(err)
	}

	var jv JobView
	if resp := s.getJSON(t, "/v1/jobs/"+jobs[0].ID, &jv); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job = %d", resp.StatusCode)
	}
	if jv.State != "finished" || jv.Start == nil || jv.Finish == nil || jv.Fidelity == nil {
		t.Fatalf("finished job view = %+v", jv)
	}
	if jv.Source != "http" || jv.ConnID != 1 || jv.Remote == "" {
		t.Fatalf("job provenance = source %q remote %q conn %d", jv.Source, jv.Remote, jv.ConnID)
	}
	if len(jv.Devices) == 0 {
		t.Fatal("finished job view missing devices")
	}

	if resp := s.getJSON(t, "/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	var st Status
	s.getJSON(t, "/v1/status", &st)
	if st.Policy != "speed" || st.Finished != len(jobs) || st.Active != 0 || st.QueueDepth != 0 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Devices) == 0 {
		t.Fatal("status missing devices")
	}
	for _, d := range st.Devices {
		if d.Name == "" || d.Capacity <= 0 || d.Free != d.Capacity {
			t.Fatalf("drained device state = %+v", d)
		}
	}

	var m Metrics
	s.getJSON(t, "/v1/metrics", &m)
	if m.Window.Count != len(jobs) || len(m.Tenants) == 0 {
		t.Fatalf("metrics = %+v", m)
	}

	resp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// Malformed and empty submissions are rejected whole: no partial batch
// reaches the broker.
func TestHTTPSubmitBadRequest(t *testing.T) {
	s := newLiveStack(t, func() policy.Policy { return policy.Speed{} }, core.DefaultConfig(), core.AdmissionConfig{})
	for name, body := range map[string]string{
		"empty":       "",
		"malformed":   `{"job_id":"x","num_qubits":200,"depth":5,"num_shots":100}` + "\n" + "{not json}\n",
		"unknown-key": `{"job_id":"x","num_qubits":200,"depth":5,"num_shots":100,"ingest":{"source":"spoof"}}` + "\n",
		"trailing":    `{"job_id":"x","num_qubits":200,"depth":5,"num_shots":100} {"job_id":"ghost"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || er.Error == "" {
				t.Fatalf("status %d, error %q", resp.StatusCode, er.Error)
			}
			var st Status
			s.getJSON(t, "/v1/status", &st)
			if st.Admitted != 0 {
				t.Fatalf("bad request leaked %d jobs into the broker", st.Admitted)
			}
		})
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	s := newLiveStack(t, func() policy.Policy { return policy.Speed{} }, core.DefaultConfig(), core.AdmissionConfig{})
	resp, err := http.Get(s.ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

func TestNewGatewayValidation(t *testing.T) {
	if _, err := NewGateway(nil, nil, true); err == nil {
		t.Error("nil broker accepted")
	}
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(env, fleet, policy.Speed{}, core.DefaultConfig(), core.MultiRecorder{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGateway(b, nil, true); err == nil {
		t.Error("nil index accepted")
	}
}

// boomRecorder panics on the arrival of the job named boom, standing in
// for a broker crash in the middle of a gateway call.
type boomRecorder struct{ core.MultiRecorder }

func (r boomRecorder) Arrival(j *job.QJob, t float64) {
	if j.ID == "boom" {
		panic("boom")
	}
	r.MultiRecorder.Arrival(j, t)
}

// The flush hook runs once at the end of every call that drives the
// broker, under the gateway lock, also when the call panics, and on
// Flush; SubmitHeld and read-only calls do not flush.
func TestGatewayFlushHook(t *testing.T) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewJobIndex(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(env, fleet, policy.Speed{}, core.DefaultConfig(), boomRecorder{core.MultiRecorder{idx}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(b, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	flushes := 0
	gw.SetFlush(func() {
		if gw.mu.TryLock() {
			gw.mu.Unlock()
			t.Error("flush ran without the gateway lock")
		}
		flushes++
	})
	jobs := testWorkload(t, 4)
	steps := []struct {
		name string
		call func()
		want int
	}{
		{"Submit", func() { gw.Submit(jobs[0]) }, 1},
		{"SubmitAll", func() { gw.SubmitAll(jobs[1:3]) }, 2},
		{"SubmitHeld", func() { gw.SubmitHeld(jobs[3]) }, 2},
		{"Flush", gw.Flush, 3},
		{"AdvanceTo", func() { gw.AdvanceTo(env.Now() + 1) }, 4},
		{"reads", func() { gw.Status(); gw.Metrics(); gw.Job(jobs[0].ID) }, 4},
		{"panicking Submit", func() {
			defer func() {
				if recover() == nil {
					t.Error("Submit of boom did not panic")
				}
			}()
			gw.Submit(&job.QJob{ID: "boom", NumQubits: 1, Depth: 1, Shots: 1, ArrivalTime: env.Now()})
		}, 5},
		{"Drain", func() {
			if _, err := gw.Drain(); err != nil {
				t.Fatal(err)
			}
		}, 6},
	}
	for _, s := range steps {
		s.call()
		if flushes != s.want {
			t.Fatalf("after %s: %d flushes, want %d", s.name, flushes, s.want)
		}
	}
}

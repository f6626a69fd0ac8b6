package faults

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustInjector(t *testing.T, p *Plan) *Injector {
	t.Helper()
	in, err := NewInjector(p)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return in
}

// TestLoadPlanNamesPathOnce: a bad plan file's error names the path
// and carries the package prefix once.
func TestLoadPlanNamesPathOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"rules":[{"layer":"transport","op":"frame","kind":"reset"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPlan(path)
	if err == nil {
		t.Fatal("plan with an unknown layer loaded")
	}
	if msg := err.Error(); strings.Count(msg, "faults:") != 1 || !strings.Contains(msg, path) || !strings.Contains(msg, `unknown layer "transport"`) {
		t.Fatalf("err = %q, want the path, one faults: prefix and the cause", msg)
	}
}

func TestParsePlanRejectsBadRules(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown layer", `{"seed":1,"rules":[{"layer":"disk","op":"read","kind":"cut"}]}`, "unknown layer"},
		{"transport layer", `{"seed":1,"rules":[{"layer":"transport","op":"frame","kind":"reset"}]}`, `unknown layer "transport"`},
		{"bad op", `{"seed":1,"rules":[{"layer":"http","op":"frame","kind":"delay"}]}`, "no op"},
		{"kind mismatch", `{"seed":1,"rules":[{"layer":"http","op":"request","kind":"crash"}]}`, "not valid"},
		{"second plan", `{"seed":1,"rules":[]} {"seed":2,"rules":[{"layer":"ingest","op":"line","kind":"garble"}]}`, "trailing content"},
		{"trailing garbage", `{"seed":1,"rules":[]} garbage`, "trailing content"},
		{"delay overflow", `{"seed":1,"rules":[{"layer":"http","op":"request","kind":"delay","delay_ms":1e300}]}`, "rule 0 (http/request/delay): delay_ms 1e+300 outside"},
		{"probability", `{"seed":1,"rules":[{"layer":"http","op":"request","kind":"error","p":1.5}]}`, "probability"},
		{"unknown field", `{"seed":1,"rules":[{"layer":"http","op":"request","kind":"error","when":"later"}]}`, "unknown field"},
		{"delay on cut", `{"seed":1,"rules":[{"layer":"ingest","op":"read","kind":"cut","delay_ms":60000}]}`, "rule 0 (ingest/read/cut): delay_ms applies only to delay and stall"},
		{"bytes on error", `{"seed":1,"rules":[{"layer":"http","op":"request","kind":"error","bytes":10}]}`, "rule 0 (http/request/error): bytes applies only to cut and sever"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindReset, P: 0.3},
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindDelay, P: 0.5, DelayMS: 5},
	}}
	drive := func(in *Injector) []Event {
		for i := 0; i < 200; i++ {
			in.Decide(LayerHTTP, OpRequest, "POST /v1/jobs")
		}
		return in.Events()
	}
	a := drive(mustInjector(t, plan))
	b := drive(mustInjector(t, plan))
	if len(a) == 0 {
		t.Fatal("probabilistic rules never fired over 200 opportunities")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan produced different event logs:\n%v\nvs\n%v", a, b)
	}
	other := &Plan{Seed: 43, Rules: plan.Rules}
	if c := drive(mustInjector(t, other)); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical event logs")
	}
}

func TestAfterAndMaxWindowFiring(t *testing.T) {
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerIngest, Op: OpLine, Kind: KindGarble, After: 3, Max: 2},
	}})
	fired := 0
	for i := 0; i < 10; i++ {
		if len(in.Decide(LayerIngest, OpLine, "")) > 0 {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (after=3, max=2)", fired)
	}
	evs := in.Events()
	if evs[0].Opportunity != 4 || evs[1].Opportunity != 5 {
		t.Fatalf("firing opportunities %d,%d; want 4,5", evs[0].Opportunity, evs[1].Opportunity)
	}
}

func TestTargetsRestrictRule(t *testing.T) {
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindError, Targets: []string{"POST /v1/jobs"}},
	}})
	if got := in.Decide(LayerHTTP, OpRequest, "GET /v1/healthz"); len(got) != 0 {
		t.Fatalf("rule fired on non-matching target: %v", got)
	}
	if got := in.Decide(LayerHTTP, OpRequest, "POST /v1/jobs"); len(got) != 1 {
		t.Fatalf("rule missed matching target: %v", got)
	}
}

// A crash rule reports a crash at the first opportunity after its
// window opens, and only up to its Max.
func TestLineCrashFiresInWindow(t *testing.T) {
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerIngest, Op: OpLine, Kind: KindCrash, After: 2, Max: 1},
	}})
	var got []bool
	for range 4 {
		_, crash := in.Line([]byte(`{"job_id":"x"}`))
		got = append(got, crash)
	}
	if fmt.Sprint(got) != "[false false true false]" {
		t.Fatalf("crashes per line = %v, want only the third (after=2, max=1)", got)
	}
}

func TestLineGarbleAndCutCopyTheBuffer(t *testing.T) {
	orig := []byte(`{"job_id":"q1","num_qubits":4}`)
	buf := append([]byte(nil), orig...)
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerIngest, Op: OpLine, Kind: KindGarble, Max: 1},
	}})
	got, _ := in.Line(buf)
	if bytes.Equal(got, orig) {
		t.Fatal("garble returned the line unchanged")
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("garble mutated the caller's buffer")
	}
}

func TestReaderCutTruncatesStream(t *testing.T) {
	src := strings.Repeat("x", 1000)
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerIngest, Op: OpRead, Kind: KindCut, After: 1, Max: 1, Bytes: 64},
	}})
	got, err := io.ReadAll(in.Reader(io.LimitReader(strings.NewReader(src), 1000)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) >= 1000 {
		t.Fatalf("cut stream delivered all %d bytes", len(got))
	}
	if !strings.HasPrefix(src, string(got)) {
		t.Fatal("cut stream delivered bytes that are not a prefix of the input")
	}
}

func TestMiddlewareErrorAndSever(t *testing.T) {
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindError, Max: 1},
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindSever, After: 1, Max: 1, Bytes: 4},
	}})
	var bodyErr error
	var bodyGot []byte
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bodyGot, bodyErr = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusOK)
	}))

	// Request 1: injected 503 with Retry-After, handler never runs.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader("12345678")))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("injected 503 missing Retry-After")
	}

	// Request 2: body severed after 4 bytes.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader("12345678")))
	if bodyErr == nil {
		t.Fatalf("severed body read succeeded with %q", bodyGot)
	}
	if len(bodyGot) > 4 {
		t.Fatalf("severed body delivered %d bytes, want at most 4", len(bodyGot))
	}

	// Request 3: rules exhausted, passes through clean.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader("12345678")))
	if rr.Code != http.StatusOK || bodyErr != nil {
		t.Fatalf("clean request: status=%d bodyErr=%v", rr.Code, bodyErr)
	}
}

func TestMiddlewareResetAbortsHandler(t *testing.T) {
	in := mustInjector(t, &Plan{Seed: 1, Rules: []Rule{
		{Layer: LayerHTTP, Op: OpRequest, Kind: KindReset, Max: 1},
	}})
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recover = %v, want http.ErrAbortHandler", r)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/status", nil))
	t.Fatal("reset fault did not abort the handler")
}

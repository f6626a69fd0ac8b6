package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// fuzzMaxQueue is the admission queue limit of the submit fuzz stack.
const fuzzMaxQueue = 2

// submitFuzzStack builds a logical-time gateway and server over a fresh
// broker whose AdmitReject queue is already full at t=0: a body whose
// jobs all arrive at t=0 is refused (429), and one that moves the clock
// past a completion frees room (202).
func submitFuzzStack(t *testing.T) (*core.Broker, *Server) {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewJobIndex(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBroker(env, fleet, policy.Fair{}, core.DefaultConfig(), idx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetAdmission(core.AdmissionConfig{Policy: core.AdmitReject, MaxQueue: fuzzMaxQueue}); err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(b, idx, true)
	if err != nil {
		t.Fatal(err)
	}
	prelude := []*job.QJob{mkWide("pre-0", "", 0), mkWide("pre-1", "", 0), mkWide("pre-2", "", 0), mkWide("pre-3", "", 0)}
	gw.SubmitAll(prelude)
	if d := b.QueueDepth(); d != fuzzMaxQueue {
		t.Fatalf("prelude left queue depth %d, want %d", d, fuzzMaxQueue)
	}
	return b, NewServer(gw)
}

// FuzzSubmitBody drives POST /v1/jobs with arbitrary bodies. No body may
// panic the server or broker; the status is 202, 400, 413 or 429; a
// refused body (400, 413) admits nothing; and a decided one accounts
// for every job, in line order, with an accepted count equal to the
// broker's admissions.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		// A valid batch: the t=0 job is refused, the later one admitted.
		`{"job_id":"a","num_qubits":150,"depth":10,"num_shots":1000}` + "\n" +
			`{"job_id":"b","num_qubits":150,"depth":10,"num_shots":1000,"arrival_time":1e6}` + "\n",
		// Every job at t=0: all refused.
		`{"job_id":"a","num_qubits":150,"depth":10,"num_shots":1000}` + "\n",
		// Blank lines around and between jobs.
		"\n\n" + `{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}` + "\n  \n" +
			`{"job_id":"b","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}` + "\n\n",
		// A bad line in mid-batch.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}` + "\n" +
			`{"job_id":"b","num_qubits":0,"depth":10,"num_shots":100}` + "\n" +
			`{"job_id":"c","num_qubits":5,"depth":10,"num_shots":100}` + "\n",
		// Trailing content after a record.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100} {"x":1}` + "\n",
		// An unknown field.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"priority":9}` + "\n",
		// A repeated ID within one batch.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}` + "\n" +
			`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}` + "\n",
		// A two-qubit gate count whose fidelity split overflows an int.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"two_qubit_gates":9223372036854775807}` + "\n",
		// Unterminated final line, and an empty body.
		`{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":9e5}`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 64<<10 {
			t.Skip("bodies over 64 KiB")
		}
		b, srv := submitFuzzStack(t)
		before := b.Admitted()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		admitted := b.Admitted() - before

		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if admitted != 0 {
				t.Fatalf("status %d admitted %d job(s): %s", rec.Code, admitted, rec.Body.Bytes())
			}
			return
		case http.StatusAccepted, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var sr SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("status %d with undecodable response %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if sr.Submitted != sr.Accepted+sr.Rejected || sr.Accepted != admitted {
			t.Fatalf("submitted %d, accepted %d, rejected %d, broker admitted %d", sr.Submitted, sr.Accepted, sr.Rejected, admitted)
		}
		if (rec.Code == http.StatusAccepted) != (sr.Accepted > 0) {
			t.Fatalf("status %d with %d accepted", rec.Code, sr.Accepted)
		}
		// The results follow the body's job lines in order.
		dec := job.NewStreamDecoder(bytes.NewReader(body))
		var ids []string
		for {
			j, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("server accepted a body the decoder refuses: %v", err)
			}
			ids = append(ids, j.ID)
		}
		if len(sr.Results) != len(ids) || sr.Submitted != len(ids) {
			t.Fatalf("%d results for %d submitted, %d job lines", len(sr.Results), sr.Submitted, len(ids))
		}
		for i, r := range sr.Results {
			if r.JobID != ids[i] {
				t.Fatalf("result %d is job %q, line order has %q", i, r.JobID, ids[i])
			}
		}
	})
}

// A two_qubit_gates count above 2^53 is a 400 over HTTP that admits
// nothing, not a broker crash.
func TestSubmitRefusesHugeTwoQubitGates(t *testing.T) {
	b, srv := submitFuzzStack(t)
	before := b.Admitted()
	body := `{"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"two_qubit_gates":9223372036854775807,"arrival_time":1e6}` + "\n"
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(body))))
	if rec.Code != http.StatusBadRequest || b.Admitted() != before {
		t.Fatalf("status %d, admitted %d -> %d: %s", rec.Code, before, b.Admitted(), rec.Body.Bytes())
	}
}

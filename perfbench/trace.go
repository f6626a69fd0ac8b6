package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/policy"
)

// span is one recorded interval at a layer boundary. Parent is the index
// of the enclosing span in the trace log, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"` // job or request id
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// frame is an open nested span.
type frame struct {
	log     int // index in the log, -1 once the log is full
	name    string
	start   int64
	childNs int64
	kids    int
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count           int64
	totalNs, selfNs int64
}

// maxKeptSpans bounds the span log kept for the trace file; aggregates
// cover every span regardless.
const maxKeptSpans = 50_000

// tracer records spans from the benchmark's wrappers around the
// program's layers. Nested spans (begin/end) form a stack: calls into the
// simulator are single-threaded, or serialized by the gateway mutex in
// the HTTP case. Root spans recorded with root() may come from any
// goroutine. A layer's self time is its span minus the part its child
// spans cover.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	log    []span
	stack  []frame
	agg    map[string]*spanAgg
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: map[string]*spanAgg{}, counts: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := frame{log: -1, name: name, start: t.now()}
	if len(t.log) < maxKeptSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].log
		}
		f.log = len(t.log)
		t.log = append(t.log, span{Name: name, ID: id, Parent: parent, Start: f.start})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span. A span that had children is renamed to
// ifKids when that is set: a simulator step that ran scheduler code is
// charged to the core layer, not the event kernel.
func (t *tracer) end(ifKids string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	if ifKids != "" && f.kids > 0 {
		f.name = ifKids
	}
	if f.log >= 0 {
		t.log[f.log].Name, t.log[f.log].End = f.name, end
	}
	dur := end - f.start
	t.add(f.name, dur, dur-f.childNs)
	if n > 0 {
		t.stack[n-1].childNs += dur
		t.stack[n-1].kids++
	}
}

// root records a finished span with no parent.
func (t *tracer) root(name, id string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, e := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	if len(t.log) < maxKeptSpans {
		t.log = append(t.log, span{Name: name, ID: id, Parent: -1, Start: s, End: e})
	}
	t.add(name, e-s, e-s)
}

func (t *tracer) add(name string, total, self int64) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.count++
	a.totalNs += total
	a.selfNs += self
}

// get returns the aggregate of one span name (zero if never recorded).
func (t *tracer) get(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// writeJSONL writes the kept spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.log {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inc counts one event that is not a span.
func (t *tracer) inc(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name]++
}

// count returns an inc counter.
func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// tracedPolicy wraps an allocation policy: one "policy.<name>" span per
// Allocate call, and a "policy.placed" count of the calls that placed
// the job.
type tracedPolicy struct {
	policy.Policy
	tr   *tracer
	span string
}

func traced(p policy.Policy, tr *tracer) *tracedPolicy {
	return &tracedPolicy{Policy: p, tr: tr, span: "policy." + p.Name()}
}

func (p *tracedPolicy) Allocate(j *job.QJob, states []policy.DeviceState) []policy.Allocation {
	p.tr.begin(p.span, j.ID)
	a := p.Policy.Allocate(j, states)
	p.tr.end("")
	if a != nil {
		p.tr.inc("policy.placed")
	}
	return a
}

// tracedRecorder wraps the broker's lifecycle recorder fan-out: one
// "records.recorder" span per event.
type tracedRecorder struct {
	rec core.StreamRecorder
	tr  *tracer
}

func (r tracedRecorder) Arrival(j *job.QJob, t float64) {
	r.tr.begin("records.recorder", j.ID)
	r.rec.Arrival(j, t)
	r.tr.end("")
}

func (r tracedRecorder) Start(jobID string, t float64) {
	r.tr.begin("records.recorder", jobID)
	r.rec.Start(jobID, t)
	r.tr.end("")
}

func (r tracedRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	r.tr.begin("records.recorder", jobID)
	r.rec.Finish(jobID, finish, fidelity, commTime, deviceNames)
	r.tr.end("")
}

func (r tracedRecorder) Drop(j *job.QJob, t float64, reason string) {
	r.tr.begin("records.recorder", j.ID)
	r.rec.Drop(j, t, reason)
	r.tr.end("")
}

// tracedHandler wraps the HTTP API: one root span per request, named
// api.submit for POST and api.read otherwise.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "api.read"
		if r.Method == http.MethodPost {
			name = "api.submit"
		}
		tr.root(name, r.Header.Get(reqIDHeader), start, time.Now())
	})
}

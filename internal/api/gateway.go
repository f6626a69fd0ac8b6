// Package api is the broker's control plane: a Gateway that serializes
// concurrent access to the single-threaded core.Broker, and an HTTP
// server exposing job submission, per-job lifecycle state, rolling
// metrics, and status over it. The package keeps transport concerns out
// of the event core — the broker stays callback-driven and
// allocation-free; the gateway adds exactly one mutex around it.
package api

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
)

// Gateway mediates every interaction with a live broker. The broker,
// its environment, and its recorders are single-threaded by design; the
// gateway's mutex is the one synchronization point that lets HTTP
// handler goroutines, the TCP/stdin ingest loop, and the real-time
// ticker share them. Lock/unlock on the submit path does not allocate,
// so the steady-state post-decode submit cycle stays at 0 allocs/op.
type Gateway struct {
	mu  sync.Mutex
	b   *core.Broker
	idx *core.JobIndex
	// logical selects deterministic logical-time submission: the clock
	// advances to each job's nominal arrival_time before the admission
	// decision, reproducing the batch run byte-for-byte. When false
	// (real-time modes), arrival_time is ignored and jobs are admitted
	// at the current simulation time.
	logical bool
	// flush, if set, runs at the end of every call that drives the
	// broker; see SetFlush.
	flush func()
}

// NewGateway wraps a broker and its job index. The index must be one of
// the broker's recorders, or job lookups will come up empty.
func NewGateway(b *core.Broker, idx *core.JobIndex, logical bool) (*Gateway, error) {
	if b == nil {
		return nil, fmt.Errorf("api: nil broker")
	}
	if idx == nil {
		return nil, fmt.Errorf("api: nil job index")
	}
	return &Gateway{b: b, idx: idx, logical: logical}, nil
}

// SetFlush installs f to run under the lock at the end of every call
// that drives the broker — Submit, SubmitAll, AdvanceTo and Drain —
// even when the call panics, and on Flush. A recorder that buffers its
// output flushes there, so the output of those calls is written before
// they return and never interleaves with another call's. SubmitHeld
// skips it: its output waits for the next flush.
func (g *Gateway) SetFlush(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flush = f
}

// flushLocked runs the flush hook. Callers defer it after deferring the
// unlock, so it runs first, still under the lock.
//
//repro:noalloc
func (g *Gateway) flushLocked() {
	if g.flush != nil {
		g.flush()
	}
}

// Submit offers one job to the broker through admission control. In
// logical mode the simulation clock first advances to the job's
// arrival_time (never backwards), running any due completions — exactly
// the batch replay semantics.
//
//repro:noalloc
func (g *Gateway) Submit(j *job.QJob) core.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.flushLocked()
	return g.submitLocked(j)
}

// SubmitHeld is Submit without the flush: the output the job produces
// stays buffered until a later call flushes it. A caller that submits a
// run of jobs with nothing to wait for in between (the logical-time
// stdin loop) calls Flush once for the run, before it waits.
//
//repro:noalloc
func (g *Gateway) SubmitHeld(j *job.QJob) core.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.submitLocked(j)
}

// Flush runs the flush hook under the lock, writing the output that
// SubmitHeld calls left buffered.
func (g *Gateway) Flush() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushLocked()
}

//repro:noalloc
func (g *Gateway) submitLocked(j *job.QJob) core.Decision {
	env := g.b.Env()
	if g.logical && j.ArrivalTime > env.Now() {
		env.AdvanceTo(j.ArrivalTime)
	}
	return g.b.Offer(j)
}

// SubmitAll offers a batch of jobs atomically: no other submitter or
// ticker interleaves, so a single ordered batch in logical mode is a
// deterministic replay. The returned decisions parallel jobs.
func (g *Gateway) SubmitAll(jobs []*job.QJob) []core.Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.flushLocked()
	out := make([]core.Decision, len(jobs))
	for i, j := range jobs {
		out[i] = g.submitLocked(j)
	}
	return out
}

// AdvanceTo moves the simulation clock forward to t (no-op if t is in
// the past), running due events. Real-time serve loops call this from
// their wall-clock ticker.
func (g *Gateway) AdvanceTo(t float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.flushLocked()
	if t > g.b.Env().Now() {
		g.b.Env().AdvanceTo(t)
	}
}

// Drain runs the event core to exhaustion (all admitted jobs complete)
// and returns the final simulation time.
func (g *Gateway) Drain() (float64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.flushLocked()
	return g.b.Drain()
}

// DeviceStatus is one QPU's live state in a Status snapshot.
type DeviceStatus struct {
	Name        string  `json:"name"`
	Capacity    int     `json:"capacity_qubits"`
	Free        int     `json:"free_qubits"`
	Utilization float64 `json:"utilization"`
}

// Status is the /v1/status response: clock, counters, queue and device
// state, and the admission-control decision counts.
type Status struct {
	SimNow     float64             `json:"sim_now"`
	Policy     string              `json:"policy"`
	Admitted   int                 `json:"admitted"`
	Finished   int                 `json:"finished"`
	Active     int                 `json:"active"`
	QueueDepth int                 `json:"queue_depth"`
	Admission  core.AdmissionStats `json:"admission"`
	Devices    []DeviceStatus      `json:"devices"`
}

// Status snapshots the broker.
func (g *Gateway) Status() Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.b
	st := Status{
		SimNow:     b.Env().Now(),
		Policy:     b.Policy().Name(),
		Admitted:   b.Admitted(),
		Finished:   b.Finished(),
		Active:     b.Active(),
		QueueDepth: b.QueueDepth(),
		Admission:  b.AdmissionCounters(),
	}
	for _, d := range b.Devices() {
		st.Devices = append(st.Devices, DeviceStatus{
			Name:        d.Name(),
			Capacity:    d.NumQubits(),
			Free:        d.FreeQubits(),
			Utilization: d.Utilization(),
		})
	}
	return st
}

// Metrics is the /v1/metrics response: the rolling global window, the
// per-tenant windows, and the admission counters, all at the current
// simulation time.
type Metrics struct {
	SimNow     float64                          `json:"sim_now"`
	Admitted   int                              `json:"admitted"`
	Finished   int                              `json:"finished"`
	Active     int                              `json:"active"`
	QueueDepth int                              `json:"queue_depth"`
	Admission  core.AdmissionStats              `json:"admission"`
	Window     metrics.WindowSummary            `json:"window"`
	Tenants    map[string]metrics.WindowSummary `json:"tenants,omitempty"`
}

// Metrics snapshots the rolling windows.
func (g *Gateway) Metrics() Metrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.b
	now := b.Env().Now()
	tw := b.Windows()
	return Metrics{
		SimNow:     now,
		Admitted:   b.Admitted(),
		Finished:   b.Finished(),
		Active:     b.Active(),
		QueueDepth: b.QueueDepth(),
		Admission:  b.AdmissionCounters(),
		Window:     tw.Global().Summary(now),
		Tenants:    tw.Summaries(now),
	}
}

// JobView is the /v1/jobs/{id} response. Timing and outcome fields are
// pointers so states that have not reached them omit them from JSON.
type JobView struct {
	ID         string   `json:"job_id"`
	Tenant     string   `json:"tenant,omitempty"`
	State      string   `json:"state"`
	NumQubits  int      `json:"num_qubits"`
	Depth      int      `json:"depth"`
	Shots      int      `json:"num_shots"`
	Arrival    float64  `json:"arrival"`
	Start      *float64 `json:"start,omitempty"`
	Finish     *float64 `json:"finish,omitempty"`
	Fidelity   *float64 `json:"fidelity,omitempty"`
	CommTime   *float64 `json:"comm_time,omitempty"`
	Devices    []string `json:"devices,omitempty"`
	DropReason string   `json:"drop_reason,omitempty"`
	Source     string   `json:"source,omitempty"`
	Remote     string   `json:"remote,omitempty"`
	ConnID     int64    `json:"conn_id,omitempty"`
}

// Job returns the job's lifecycle view, copying out of the index's
// pooled entry under the lock. ok is false for unknown (or evicted)
// jobs.
func (g *Gateway) Job(id string) (JobView, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.idx.Lookup(id)
	if e == nil {
		return JobView{}, false
	}
	v := JobView{
		ID:         e.ID,
		Tenant:     e.Tenant,
		State:      e.State.String(),
		NumQubits:  e.NumQubits,
		Depth:      e.Depth,
		Shots:      e.Shots,
		Arrival:    e.Arrival,
		DropReason: e.DropReason,
		Source:     e.Ingest.Source,
		Remote:     e.Ingest.Remote,
		ConnID:     e.Ingest.ConnID,
	}
	switch e.State {
	case core.JobRunning:
		start := e.Start
		v.Start = &start
	case core.JobFinished:
		start, finish, fid, comm := e.Start, e.Finish, e.Fidelity, e.CommTime
		v.Start, v.Finish, v.Fidelity, v.CommTime = &start, &finish, &fid, &comm
		v.Devices = append([]string(nil), e.Devices...)
	case core.JobDropped:
		finish := e.Finish
		v.Finish = &finish
	}
	return v, true
}

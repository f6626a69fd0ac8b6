package api

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// fillPolicy is a minimal allocation-free greedy policy: take free
// qubits left to right. It keeps the soak and alloc gates about the
// gateway and broker plumbing, not scheduler internals.
type fillPolicy struct{ allocs []policy.Allocation }

func (p *fillPolicy) Name() string { return "fill" }

func (p *fillPolicy) Allocate(j *job.QJob, devices []policy.DeviceState) []policy.Allocation {
	out := p.allocs[:0]
	need := j.NumQubits
	for _, d := range devices {
		if need == 0 {
			break
		}
		take := d.Free
		if take > need {
			take = need
		}
		if take > 0 {
			out = append(out, policy.Allocation{DeviceIndex: d.Index, Qubits: take})
			need -= take
		}
	}
	if need > 0 {
		return nil
	}
	p.allocs = out
	return out
}

// soakGateway builds the serve-mode stack the soak exercises: broker +
// bounded job index behind a logical-time gateway, no records.Manager
// (unbounded per-job history is a batch-export concern; service mode
// must hold memory flat forever).
func soakGateway(tb testing.TB, windowCap, retain int) *Gateway {
	tb.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := core.NewJobIndex(retain)
	if err != nil {
		tb.Fatal(err)
	}
	pol := &fillPolicy{allocs: make([]policy.Allocation, 0, len(fleet))}
	b, err := core.NewBroker(env, fleet, pol, core.DefaultConfig(), core.MultiRecorder{idx}, windowCap)
	if err != nil {
		tb.Fatal(err)
	}
	gw, err := NewGateway(b, idx, true)
	if err != nil {
		tb.Fatal(err)
	}
	return gw
}

// steadySubmitter returns a function that submits the next of a pool
// of 300-qubit jobs to gw, failing tb if the job is refused. 300-qubit
// jobs run ~486 simulated seconds and two fit the fleet at once, so the
// 300 s cadence keeps the system saturated but stable: the queue stays
// bounded instead of growing with every submission. It returns after a
// warm-up that fills the run pool, event heap, windows and index free
// list.
func steadySubmitter(tb testing.TB, gw *Gateway) func() {
	const pool = 256
	jobs := make([]*job.QJob, pool)
	for i := range jobs {
		jobs[i] = &job.QJob{ID: fmt.Sprintf("soak-%03d", i), NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750}
	}
	next := 0
	clock := 0.0
	submit := func() {
		j := jobs[next%pool]
		next++
		clock += 300
		j.ArrivalTime = clock
		if d := gw.Submit(j); !d.Admitted {
			tb.Fatalf("steady-state job refused: %+v", d)
		}
	}
	for i := 0; i < 512; i++ {
		submit()
	}
	return submit
}

// The post-decode HTTP submit path — gateway lock, admission decision,
// clock advance, dispatch, completion, index update — must be
// allocation-free at steady state, like the broker cycle beneath it.
func TestGatewaySubmitSteadyStateAllocFree(t *testing.T) {
	gw := soakGateway(t, 128, 64)
	// The flush hook qcloudsim installs rides every submit.
	flushes := 0
	gw.SetFlush(func() { flushes++ })
	submit := steadySubmitter(t, gw)
	if n := testing.AllocsPerRun(300, submit); n != 0 {
		t.Errorf("gateway submit allocates %g/op at steady state, want 0", n)
	}
	before := flushes
	submit()
	if flushes != before+1 {
		t.Errorf("%d flushes for one submit", flushes-before)
	}
}

// BenchmarkGatewaySubmit is the gateway rung: one Submit per op, with a
// flush hook installed, on the steady saturated-but-stable stack the
// allocation gate above uses. It reports jobs/s and allocs/job, as
// qcloudsim's BenchmarkServeExport does for a whole -serve run.
func BenchmarkGatewaySubmit(b *testing.B) {
	gw := soakGateway(b, 128, 64)
	gw.SetFlush(func() {})
	submit := steadySubmitter(b, gw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/job")
}

// Sustained-load soak: stream jobs through the gateway for as long as
// SOAK_JOBS demands (CI's soak-smoke gate sets 1000000) and require the
// heap to stay flat — the bounded index, pooled runs, and rolling
// windows must not leak. Defaults stay small enough for the ordinary
// test run; -short skips entirely.
func TestSoakSustainedSubmitFlatHeap(t *testing.T) {
	// CI's main test job runs `go test -race ./...` without -short, so
	// this soak (at its 100k default) races on every push; only local
	// `go test -short` skips it.
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	n := 100000
	if env := os.Getenv("SOAK_JOBS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v <= 0 {
			t.Fatalf("SOAK_JOBS=%q: %v", env, err)
		}
		n = v
	}
	gw := soakGateway(t, 256, 4096)
	// More distinct IDs than the index retains, so eviction and the
	// free list cycle continuously instead of latest-wins overwrites.
	const pool = 8192
	jobs := make([]*job.QJob, pool)
	for i := range jobs {
		jobs[i] = &job.QJob{ID: fmt.Sprintf("soak-%04d", i), Tenant: fmt.Sprintf("t%d", i%7), NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750}
	}

	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	clock := 0.0
	samples := make([]uint64, 0, 10)
	chunk := n / 10
	if chunk == 0 {
		chunk = 1
	}
	for i := 0; i < n; i++ {
		j := jobs[i%pool]
		// Same stable cadence as the alloc gate: arrivals 20% slower
		// than the fleet drains them, so a heap that grows here is a
		// leak, not a backlog.
		clock += 300
		j.ArrivalTime = clock
		if d := gw.Submit(j); !d.Admitted {
			t.Fatalf("soak job %d refused: %+v", i, d)
		}
		if (i+1)%chunk == 0 {
			samples = append(samples, heapAfter())
		}
	}
	if _, err := gw.Drain(); err != nil {
		t.Fatal(err)
	}

	// The first sample is taken after the structures are warm (10% in);
	// every later sample must stay within noise of it. A leak of even
	// one small allocation per job would blow through this budget by
	// the second sample.
	base := samples[0]
	limit := base + base/4 + 1<<20
	for i, s := range samples[1:] {
		if s > limit {
			t.Fatalf("heap grew under sustained load: sample %d = %d bytes, baseline %d (limit %d); samples: %v",
				i+2, s, base, limit, samples)
		}
	}
	t.Logf("soak: %d jobs, heap samples (bytes): %v", n, samples)
}

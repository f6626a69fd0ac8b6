package records

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestLifecycleHappyPath(t *testing.T) {
	m := NewManager()
	m.LogArrival("j1", 0)
	m.LogStart("j1", 5)
	m.LogFinish("j1", 25, 0.7, 3.8, []string{"a", "b"})

	s := m.Get("j1")
	if s == nil {
		t.Fatal("job missing")
	}
	if s.WaitTime() != 5 || s.Turnaround() != 25 || s.ExecTime() != 20 {
		t.Fatalf("derived times wrong: wait=%g turn=%g exec=%g",
			s.WaitTime(), s.Turnaround(), s.ExecTime())
	}
	if s.Devices != 2 || s.Fidelity != 0.7 || s.CommTime != 3.8 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.Arrival != 0 || s.Start != 5 || s.Finish != 25 || s.Dropped() || s.DropReason != "" {
		t.Fatalf("lifecycle times wrong: %+v", s)
	}
	if got := s.DeviceNames; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("device names = %q", got)
	}
	if m.NumFinished() != 1 || m.NumPending() != 0 || m.NumDropped() != 0 {
		t.Fatal("counts wrong")
	}
	if fin := m.Finished(); len(fin) != 1 || fin[0] != s {
		t.Fatalf("finished = %v", fin)
	}
}

func TestLifecycleOrderingViolations(t *testing.T) {
	cases := []func(*Manager){
		func(m *Manager) { m.LogStart("x", 1) },                                           // start before arrival
		func(m *Manager) { m.LogFinish("x", 1, 0.5, 0, nil) },                             // finish before start
		func(m *Manager) { m.LogArrival("x", 0); m.LogArrival("x", 1) },                   // double arrival
		func(m *Manager) { m.LogArrival("x", 0); m.LogStart("x", 1); m.LogStart("x", 2) }, // double start
		func(m *Manager) { // double finish
			m.LogArrival("x", 0)
			m.LogStart("x", 1)
			m.LogFinish("x", 2, 0.5, 0, nil)
			m.LogFinish("x", 3, 0.5, 0, nil)
		},
		func(m *Manager) { // invalid fidelity
			m.LogArrival("x", 0)
			m.LogStart("x", 1)
			m.LogFinish("x", 2, 1.5, 0, nil)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(NewManager())
		}()
	}
}

func populated() *Manager {
	m := NewManager()
	fids := []float64{0.6, 0.7, 0.8}
	comms := []float64{1.0, 2.0, 3.0}
	for i, f := range fids {
		id := string(rune('a' + i))
		arr := float64(i * 10)
		m.LogArrival(id, arr)
		m.LogStart(id, arr+2)
		m.LogFinish(id, arr+12, f, comms[i], []string{"d1", "d2", "d3"}[:i+1])
	}
	return m
}

func TestAggregateMetrics(t *testing.T) {
	m := populated()
	mean, std := m.FidelityMeanStd()
	if math.Abs(mean-0.7) > 1e-12 {
		t.Fatalf("mean = %g", mean)
	}
	wantStd := math.Sqrt(((0.1 * 0.1) + 0 + (0.1 * 0.1)) / 3)
	if math.Abs(std-wantStd) > 1e-12 {
		t.Fatalf("std = %g, want %g", std, wantStd)
	}
	if got := m.TotalCommTime(); math.Abs(got-6.0) > 1e-12 {
		t.Fatalf("TotalCommTime = %g", got)
	}
	if got := m.Makespan(); got != 32 {
		t.Fatalf("Makespan = %g", got)
	}
	if got := m.MeanWaitTime(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MeanWaitTime = %g", got)
	}
	if got := m.MeanTurnaround(); math.Abs(got-12) > 1e-12 {
		t.Fatalf("MeanTurnaround = %g", got)
	}
	if got := m.Throughput(); math.Abs(got-3.0/32) > 1e-12 {
		t.Fatalf("Throughput = %g", got)
	}
	if got := m.MeanDevicesPerJob(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("MeanDevicesPerJob = %g", got)
	}
}

func TestDeviceLoadShare(t *testing.T) {
	m := populated()
	shares := m.DeviceLoadShare()
	// d1 used by 3 jobs, d2 by 2, d3 by 1; total 6 sub-jobs.
	if len(shares) != 3 {
		t.Fatalf("shares = %v", shares)
	}
	if shares[0].Name != "d1" || shares[0].SubJobs != 3 || math.Abs(shares[0].Share-0.5) > 1e-12 {
		t.Fatalf("d1 share: %+v", shares[0])
	}
	if shares[2].Name != "d3" || shares[2].SubJobs != 1 {
		t.Fatalf("d3 share: %+v", shares[2])
	}
}

func TestEmptyManagerSafeDefaults(t *testing.T) {
	m := NewManager()
	if mean, std := m.FidelityMeanStd(); mean != 0 || std != 0 {
		t.Fatal("empty mean/std should be 0")
	}
	if m.Makespan() != 0 || m.Throughput() != 0 || m.MeanWaitTime() != 0 ||
		m.MeanTurnaround() != 0 || m.MeanDevicesPerJob() != 0 || m.TotalCommTime() != 0 {
		t.Fatal("empty aggregates should be 0")
	}
	if m.Get("nope") != nil {
		t.Fatal("unknown job should be nil")
	}
	if len(m.DeviceLoadShare()) != 0 {
		t.Fatal("empty load share")
	}
}

func TestPendingCount(t *testing.T) {
	m := NewManager()
	m.LogArrival("a", 0)
	m.LogArrival("b", 1)
	m.LogStart("a", 2)
	if m.NumPending() != 2 {
		t.Fatalf("pending = %d, want 2", m.NumPending())
	}
	m.LogFinish("a", 3, 0.9, 0, []string{"d"})
	if m.NumPending() != 1 || m.NumFinished() != 1 {
		t.Fatal("counts wrong after one finish")
	}
}

func TestFinishedPreservesArrivalOrder(t *testing.T) {
	m := NewManager()
	// b finishes before a, but a arrived first.
	m.LogArrival("a", 0)
	m.LogArrival("b", 1)
	m.LogStart("b", 1)
	m.LogFinish("b", 2, 0.5, 0, []string{"d"})
	m.LogStart("a", 3)
	m.LogFinish("a", 4, 0.6, 0, []string{"d"})
	fin := m.Finished()
	if fin[0].JobID != "a" || fin[1].JobID != "b" {
		t.Fatalf("order: %s, %s", fin[0].JobID, fin[1].JobID)
	}
}

// TestFinishCopiesDeviceNames: LogFinish keeps its own copy of the
// device names, because the broker reuses the buffer it passes, and a
// row's copy is capped at its length, so appending to it cannot write
// over the next row's names.
func TestFinishCopiesDeviceNames(t *testing.T) {
	m := NewManager()
	buf := []string{"a", "b"}
	m.LogArrival("j1", 0)
	m.LogStart("j1", 1)
	m.LogFinish("j1", 2, 0.9, 0, buf)
	buf[0], buf[1] = "x", "y"
	m.LogArrival("j2", 3)
	m.LogStart("j2", 4)
	m.LogFinish("j2", 5, 0.9, 0, buf[:1])
	first, second := m.Get("j1"), m.Get("j2")
	if got := first.DeviceNames; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("j1 device names = %q after the buffer was overwritten, want [a b]", got)
	}
	grown := append(first.DeviceNames, "c")
	grown[0] = "z"
	if got := second.DeviceNames; !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("j2 device names = %q after appending to j1's, want [x]", got)
	}
	if got := first.DeviceNames; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("j1 device names = %q after appending to them, want [a b]", got)
	}
}

// TestAggregatesMatchFinishedList: the aggregates walk the arrival order
// and skip unfinished and dropped jobs; every figure must be
// bit-identical to the same sum over the Finished list.
func TestAggregatesMatchFinishedList(t *testing.T) {
	m := NewManager()
	names := []string{"d0", "d1", "d2", "d3"}
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("j%d", i)
		at := float64(i) * 0.37
		switch i % 7 {
		case 3:
			m.LogDrop(id, at, "rate") // refused: never arrived
			continue
		case 5:
			m.LogArrival(id, at)
			m.LogDrop(id, at+1, "shed")
			continue
		}
		m.LogArrival(id, at)
		if i%11 == 4 {
			continue // left queued
		}
		m.LogStart(id, at+float64(i%13)/3)
		if i%17 == 6 {
			continue // left running
		}
		m.LogFinish(id, at+10+float64(i%29)/7, 0.5+float64(i%101)/211, float64(i%19)/3, names[:1+i%4])
	}
	fin := m.Finished()
	if len(fin) != m.NumFinished() || len(fin) == 0 {
		t.Fatalf("Finished has %d rows, NumFinished %d", len(fin), m.NumFinished())
	}
	var mean, std, comm, makespan, wait, turn, k float64
	fids := make([]float64, len(fin))
	for i, s := range fin {
		fids[i] = s.Fidelity
		mean += s.Fidelity
		comm += s.CommTime
		makespan = max(makespan, s.Finish)
		wait += s.WaitTime()
		turn += s.Turnaround()
		k += float64(s.Devices)
	}
	n := float64(len(fin))
	mean /= n
	for _, s := range fin {
		d := s.Fidelity - mean
		std += d * d
	}
	std = math.Sqrt(std / n)
	gotMean, gotStd := m.FidelityMeanStd()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"FidelityMean", gotMean, mean},
		{"FidelityStd", gotStd, std},
		{"TotalCommTime", m.TotalCommTime(), comm},
		{"Makespan", m.Makespan(), makespan},
		{"MeanWaitTime", m.MeanWaitTime(), wait / n},
		{"MeanTurnaround", m.MeanTurnaround(), turn / n},
		{"MeanDevicesPerJob", m.MeanDevicesPerJob(), k / n},
		{"Throughput", m.Throughput(), n / makespan},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, want %v over the Finished list", c.name, c.got, c.want)
		}
	}
	if got := m.Fidelities(); !reflect.DeepEqual(got, fids) {
		t.Errorf("Fidelities differ from the Finished list's")
	}
	if m.NumPending()+m.NumDropped()+m.NumFinished() != len(m.order) {
		t.Errorf("pending %d + dropped %d + finished %d != %d jobs",
			m.NumPending(), m.NumDropped(), m.NumFinished(), len(m.order))
	}
}

// TestManagerAllocsPerJob: a job's arrival, start and finish take no
// allocation of their own (the records come from slabs, the device names
// from an arena), and the aggregates and the export allocate a fixed
// number of times. 20k jobs must cost under 0.05 allocations each.
func TestManagerAllocsPerJob(t *testing.T) {
	const n = 20000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%07d", i)
	}
	buf := []string{"d0", "d1"}
	allocs := testing.AllocsPerRun(1, func() {
		m := NewManager()
		for i, id := range ids {
			at := float64(i)
			m.LogArrival(id, at)
			m.LogStart(id, at+1)
			m.LogFinish(id, at+2, 0.9, 0.1, buf[:1+i%2])
		}
		m.FidelityMeanStd()
		m.Makespan()
		m.TotalCommTime()
		m.MeanWaitTime()
		m.MeanTurnaround()
		m.MeanDevicesPerJob()
		m.DeviceLoadShare()
		if err := m.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	perJob := allocs / n
	t.Logf("%v allocations for %d jobs: %.4f per job", allocs, n, perJob)
	if perJob >= 0.05 {
		t.Errorf("%.4f allocations per job, want under 0.05", perJob)
	}
}

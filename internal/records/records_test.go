package records

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/job"
)

// recordAll feeds evs, which leave no job live, to a Manager, to an
// export recorder and to the reference, fails t unless all three write
// the same CSV, and returns the Manager.
func recordAll(t *testing.T, evs []streamEvent) *Manager {
	t.Helper()
	var buf bytes.Buffer
	r, w := newBufRecorder(&buf, 4096, true)
	for _, e := range evs {
		e.feed(r)
	}
	want := refCSV(t, evs)
	if got := flushed(t, w, &buf); !bytes.Equal(got, want) {
		t.Fatalf("export recorder CSV differs from the reference's:\n got %q\nwant %q", got, want)
	}
	m := NewManager()
	for _, e := range evs {
		e.feed(m)
	}
	var got bytes.Buffer
	if err := m.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Manager CSV differs from the reference's:\n got %q\nwant %q", got.Bytes(), want)
	}
	return m
}

// run returns the arrival, start and finish events of one job.
func run(j *job.QJob, arrival, start, finish, fid, comm float64, names ...string) []streamEvent {
	return []streamEvent{
		{kind: 'a', j: j, t: arrival},
		{kind: 's', j: j, t: start},
		{kind: 'f', j: j, t: finish, fid: fid, comm: comm, names: names},
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	m := recordAll(t, run(&job.QJob{ID: "j1"}, 0, 5, 25, 0.7, 3.8, "a", "b"))
	if m.NumFinished() != 1 || m.NumPending() != 0 {
		t.Fatal("counts wrong")
	}
	fin := m.Finished()
	if len(fin) != 1 || fin[0].JobID != "j1" {
		t.Fatalf("finished = %v", fin)
	}
	s := fin[0]
	if s.WaitTime() != 5 || s.Turnaround() != 25 || s.ExecTime() != 20 {
		t.Fatalf("derived times wrong: wait=%g turn=%g exec=%g",
			s.WaitTime(), s.Turnaround(), s.ExecTime())
	}
	if s.Devices != 2 || s.Fidelity != 0.7 || s.CommTime != 3.8 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.Arrival != 0 || s.Start != 5 || s.Finish != 25 {
		t.Fatalf("lifecycle times wrong: %+v", s)
	}
	if got := s.DeviceNames; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("device names = %q", got)
	}
}

// TestLifecycleOrderingViolations: each broken sequence panics in both
// recorders, as it does in the reference.
func TestLifecycleOrderingViolations(t *testing.T) {
	x := &job.QJob{ID: "x"}
	cases := [][]streamEvent{
		{{kind: 's', j: x, t: 1}},                                                     // start before arrival
		{{kind: 'f', j: x, t: 1, fid: 0.5}},                                           // finish before start
		{{kind: 'a', j: x}, {kind: 'a', j: x, t: 1}},                                  // double arrival
		{{kind: 'a', j: x}, {kind: 's', j: x, t: 1}, {kind: 's', j: x, t: 2}},         // double start
		append(run(x, 0, 1, 2, 0.5, 0), streamEvent{kind: 'f', j: x, t: 3, fid: 0.5}), // double finish
		run(x, 0, 1, 2, 1.5, 0),                                                       // invalid fidelity
		{{kind: 'a', j: x}, {kind: 's', j: x, t: 1}, {kind: 'd', j: x, t: 2}},         // drop after start
	}
	for i, evs := range cases {
		for _, rec := range []recorder{NewManager(), NewExportRecorder(bufio.NewWriter(io.Discard), true), newRefManager()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("case %d: %T: expected panic", i, rec)
					}
				}()
				for _, e := range evs {
					e.feed(rec)
				}
			}()
		}
	}
}

func populated(t *testing.T) *Manager {
	fids := []float64{0.6, 0.7, 0.8}
	comms := []float64{1.0, 2.0, 3.0}
	var evs []streamEvent
	for i, f := range fids {
		arr := float64(i * 10)
		evs = append(evs, run(&job.QJob{ID: string(rune('a' + i))}, arr, arr+2, arr+12, f, comms[i], []string{"d1", "d2", "d3"}[:i+1]...)...)
	}
	return recordAll(t, evs)
}

func TestAggregateMetrics(t *testing.T) {
	m := populated(t)
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
	if got := m.MeanDevicesPerJob(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("MeanDevicesPerJob = %g", got)
	}
}

func TestDeviceLoadShare(t *testing.T) {
	m := populated(t)
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
	if m.Makespan() != 0 || m.MeanWaitTime() != 0 ||
		m.MeanTurnaround() != 0 || m.MeanDevicesPerJob() != 0 || m.TotalCommTime() != 0 {
		t.Fatal("empty aggregates should be 0")
	}
	if m.Finished() != nil || m.Fidelities() != nil {
		t.Fatal("no rows should be nil")
	}
	if len(m.DeviceLoadShare()) != 0 {
		t.Fatal("empty load share")
	}
}

func TestPendingCount(t *testing.T) {
	m := NewManager()
	m.Arrival(&job.QJob{ID: "a"}, 0)
	m.Arrival(&job.QJob{ID: "b"}, 1)
	m.Start("a", 2)
	if m.NumPending() != 2 {
		t.Fatalf("pending = %d, want 2", m.NumPending())
	}
	m.Finish("a", 3, 0.9, 0, []string{"d"})
	if m.NumPending() != 1 || m.NumFinished() != 1 {
		t.Fatal("counts wrong after one finish")
	}
}

func TestFinishedPreservesArrivalOrder(t *testing.T) {
	// b finishes before a, but a arrived first.
	a, b := &job.QJob{ID: "a"}, &job.QJob{ID: "b"}
	m := recordAll(t, []streamEvent{
		{kind: 'a', j: a, t: 0},
		{kind: 'a', j: b, t: 1},
		{kind: 's', j: b, t: 1},
		{kind: 'f', j: b, t: 2, fid: 0.5, names: []string{"d"}},
		{kind: 's', j: a, t: 3},
		{kind: 'f', j: a, t: 4, fid: 0.6, names: []string{"d"}},
	})
	fin := m.Finished()
	if fin[0].JobID != "a" || fin[1].JobID != "b" {
		t.Fatalf("order: %s, %s", fin[0].JobID, fin[1].JobID)
	}
}

// TestFinishCopiesDeviceNames: Finish keeps its own copy of the
// device names, because the broker reuses the buffer it passes, and a
// row's copy is capped at its length, so appending to it cannot write
// over the next row's names.
func TestFinishCopiesDeviceNames(t *testing.T) {
	m := NewManager()
	buf := []string{"a", "b"}
	m.Arrival(&job.QJob{ID: "j1"}, 0)
	m.Start("j1", 1)
	m.Finish("j1", 2, 0.9, 0, buf)
	buf[0], buf[1] = "x", "y"
	m.Arrival(&job.QJob{ID: "j2"}, 3)
	m.Start("j2", 4)
	m.Finish("j2", 5, 0.9, 0, buf[:1])
	first, second := m.Finished()[0], m.Finished()[1]
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

// TestAggregatesMatchFinishedList: the aggregates walk the rows in seal
// order; every figure must be bit-identical to the same sum over the
// Finished list, and that list must be the reference's, the finished
// jobs in first-arrival order. The sequence is backfill-like: refusals
// and sheds among the admissions, each block of admissions started
// last-admitted first and finished out of admission order, and each
// block's first admission left running until the next block has
// finished, so that block's rows wait behind a live head.
func TestAggregatesMatchFinishedList(t *testing.T) {
	names := []string{"d0", "d1", "d2", "d3"}
	var evs []streamEvent
	finish := func(j *job.QJob, i int) {
		at := float64(i) * 0.37
		evs = append(evs, streamEvent{kind: 'f', j: j, t: at + 10 + float64(i%29)/7,
			fid: 0.5 + float64(i%101)/211, comm: float64(i%19) / 3, names: names[:1+i%4]})
	}
	type admitted struct {
		j *job.QJob
		i int
	}
	var held *admitted
	admissions, sheds := 0, 0
	for b := 0; b < 300; b++ {
		var block []admitted
		for i := 10 * b; i < 10*b+10; i++ {
			j := &job.QJob{ID: fmt.Sprintf("j%d", i)}
			at := float64(i) * 0.37
			switch i % 7 {
			case 3:
				evs = append(evs, streamEvent{kind: 'd', j: j, t: at, reason: "rate"}) // refused: never arrived
				continue
			case 5:
				evs = append(evs, streamEvent{kind: 'a', j: j, t: at}, streamEvent{kind: 'd', j: j, t: at + 1, reason: "shed"})
				admissions++
				sheds++
				continue
			}
			evs = append(evs, streamEvent{kind: 'a', j: j, t: at})
			admissions++
			block = append(block, admitted{j, i})
		}
		for k := len(block) - 1; k >= 0; k-- {
			p := block[k]
			evs = append(evs, streamEvent{kind: 's', j: p.j, t: float64(p.i)*0.37 + float64(p.i%13)/3})
		}
		for k := len(block) - 1; k > 0; k-- {
			finish(block[k].j, block[k].i)
		}
		if held != nil {
			finish(held.j, held.i)
		}
		held = &block[0]
	}
	finish(held.j, held.i)
	m := recordAll(t, evs)
	ref := newRefManager()
	for _, e := range evs {
		e.feed(ref)
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
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, want %v over the Finished list", c.name, c.got, c.want)
		}
	}
	if got := m.Fidelities(); !reflect.DeepEqual(got, fids) {
		t.Errorf("Fidelities differ from the Finished list's")
	}
	if !reflect.DeepEqual(fin, ref.Finished()) {
		t.Errorf("Finished differs from the reference's first-arrival order")
	}
	if m.NumPending()+sheds+m.NumFinished() != admissions {
		t.Errorf("pending %d + shed %d + finished %d != %d admissions",
			m.NumPending(), sheds, m.NumFinished(), admissions)
	}
}

// TestManagerAllocsPerJob: a job's arrival, start and finish through
// the StreamRecorder methods take no allocation of their own (the
// entries come from slabs, the device names from an arena), and the
// aggregates and the export allocate a fixed number of times. 20k jobs
// must cost under 0.05 allocations each.
func TestManagerAllocsPerJob(t *testing.T) {
	const n = 20000
	jobs := make([]job.QJob, n)
	for i := range jobs {
		jobs[i].ID = fmt.Sprintf("job-%07d", i)
	}
	buf := []string{"d0", "d1"}
	allocs := testing.AllocsPerRun(1, func() {
		m := NewManager()
		for i := range jobs {
			at := float64(i)
			m.Arrival(&jobs[i], at)
			m.Start(jobs[i].ID, at+1)
			m.Finish(jobs[i].ID, at+2, 0.9, 0.1, buf[:1+i%2])
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

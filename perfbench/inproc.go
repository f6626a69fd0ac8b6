package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// The traced twin builds each workload in-process from the program's
// public constructors, with the same settings as the qcloudsim flags the
// binary phase uses. Spans come only from the wrappers in trace.go.
const (
	rlDeploySeed     = 7     // qcloudsim -rlseed default
	windowCap        = 512   // qcloudsim -window default
	jobRetention     = 65536 // qcloudsim's job index retention
	summariesSamples = 200
)

// inprocStats is one in-process pass over a workload.
type inprocStats struct {
	wall      time.Duration
	jobs      int
	depthSum  float64 // queue depth, summed over samples
	depthN    int
	heapBytes float64 // heap retained by the finished simulation(s)
}

func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func within(tr *tracer, name, id string, f func()) {
	if tr == nil {
		f()
		return
	}
	tr.begin(name, id)
	f()
	tr.end("")
}

// step processes one event. The caller guarantees a non-empty queue, so
// Step cannot fail. A step that called the policy or a recorder ran
// scheduler code and is charged to the core layer.
func step(env *sim.Environment, tr *tracer) {
	if tr == nil {
		env.Step()
		return
	}
	tr.begin("sim.step", "")
	env.Step()
	tr.end("core.step")
}

func buildPolicy(name, model string) (policy.Policy, error) {
	switch name {
	case "speed":
		return policy.Speed{}, nil
	case "fidelity":
		return policy.Fidelity{}, nil
	case "fair":
		return policy.Fair{}, nil
	case "rlbase":
		trained, err := rlsched.LoadPolicy(model)
		if err != nil {
			return nil, err
		}
		return rlsched.NewRLPolicy(trained, rlDeploySeed), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

func maybeTraced(p policy.Policy, tr *tracer) policy.Policy {
	if tr == nil {
		return p
	}
	return traced(p, tr)
}

// inprocBatch runs every policy of a batch workload through
// NewQCloudSimEnv, stepping the kernel with Environment.Step, and checks
// each export against the digest the binary produced. tr nil runs with
// the wrappers off.
func (b *bench) inprocBatch(s batchSpec, csv, model string, want map[string]string, tr *tracer) (*inprocStats, error) {
	st := &inprocStats{}
	for _, name := range s.policies {
		pol, err := buildPolicy(name, model)
		if err != nil {
			return nil, err
		}
		pol = maybeTraced(pol, tr)
		h0 := heapAlloc()
		t0 := time.Now()
		var jobs []*job.QJob
		within(tr, "job.decode", "", func() { jobs, err = loadCSV(csv) })
		if err != nil {
			return nil, err
		}
		env := sim.NewEnvironment()
		fleet, err := device.StandardFleet(env, fleetSeed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Backfill = s.backfill
		se, err := core.NewQCloudSimEnv(env, fleet, pol, cfg)
		if err != nil {
			return nil, err
		}
		se.SubmitWorkload(jobs)
		for env.QueueLen() > 0 {
			step(env, tr)
			st.depthSum += float64(se.Cloud.PendingJobs())
			st.depthN++
		}
		st.wall += time.Since(t0)
		st.jobs += len(jobs)
		st.heapBytes += heapAlloc() - h0
		var buf bytes.Buffer
		within(tr, "records.write_csv", "", func() { err = se.Records.WriteCSV(&buf) })
		if err == nil && digest(buf.Bytes()) != want[name] {
			err = fmt.Errorf("in-process %s export differs from the qcloudsim export", name)
		}
		if n := se.Cloud.PendingJobs() + se.Records.NumPending(); n > 0 {
			err = fmt.Errorf("in-process %s run left %d jobs unfinished", name, n)
		}
		b.op(err)
	}
	return st, nil
}

func loadCSV(path string) ([]*job.QJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return job.LoadCSV(f)
}

// broker assembles a broker the way qcloudsim -serve does: job index,
// optional records manager (for -export), gateway in logical time.
func broker(pol policy.Policy, withManager bool, tr *tracer) (*core.Broker, *api.Gateway, *records.Manager, error) {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, fleetSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	idx, err := core.NewJobIndex(jobRetention)
	if err != nil {
		return nil, nil, nil, err
	}
	var rec *records.Manager
	recorders := core.MultiRecorder{}
	if withManager {
		rec = records.NewManager()
		recorders = append(recorders, core.ManagerRecorder{M: rec})
	}
	var recorder core.StreamRecorder = append(recorders, idx)
	if tr != nil {
		recorder = tracedRecorder{rec: recorder, tr: tr}
	}
	br, err := core.NewBroker(env, fleet, maybeTraced(pol, tr), core.DefaultConfig(), recorder, windowCap)
	if err != nil {
		return nil, nil, nil, err
	}
	gw, err := api.NewGateway(br, idx, true)
	if err != nil {
		return nil, nil, nil, err
	}
	return br, gw, rec, nil
}

// summariesUs times TenantWindows.Summaries on the broker's final
// windows, median of summariesSamples calls, in µs.
func summariesUs(br *core.Broker) float64 {
	ws := br.Windows()
	now := br.Env().Now()
	us := make([]float64, summariesSamples)
	for i := range us {
		t0 := time.Now()
		ws.Summaries(now)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us)
}

// inprocServe replays the NDJSON stream the way qcloudsim -serve does in
// logical time: decode a job, run the events due before its arrival,
// submit it through the gateway; at EOF drain. The export must equal the
// batch export. Each job is one op.
func (b *bench) inprocServe(ndjson string, ref []byte, tr *tracer) (*inprocStats, error) {
	f, err := os.Open(ndjson)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := &inprocStats{}
	h0 := heapAlloc()
	t0 := time.Now()
	br, gw, rec, err := broker(policy.Fair{}, true, tr)
	if err != nil {
		return nil, err
	}
	env := br.Env()
	dec := job.NewStreamDecoder(f)
	for {
		var j *job.QJob
		within(tr, "job.decode", "", func() { j, err = dec.Next() })
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		for env.QueueLen() > 0 && env.Peek() <= j.ArrivalTime {
			step(env, tr)
		}
		within(tr, "api.gateway", j.ID, func() { gw.Submit(j) })
		st.depthSum += float64(br.QueueDepth())
		st.depthN++
		st.jobs++
	}
	for env.QueueLen() > 0 {
		step(env, tr)
	}
	_, drainErr := br.Drain()
	st.wall = time.Since(t0)
	if tr != nil {
		b.set("metrics.summaries_us", summariesUs(br))
	}
	st.heapBytes = heapAlloc() - h0
	var buf bytes.Buffer
	within(tr, "records.write_csv", "", func() { err = rec.WriteCSV(&buf) })
	switch {
	case drainErr != nil:
		err = drainErr
	case err == nil && !bytes.Equal(buf.Bytes(), ref):
		err = fmt.Errorf("in-process serve export differs from the batch export")
	}
	failed := 0
	if err != nil {
		failed = st.jobs
	}
	b.ops(st.jobs, err, failed)
	return st, nil
}

// inprocHTTP serves api.NewServer on a loopback port in-process and
// drives it with the same open loop as the binary phase.
func (b *bench) inprocHTTP(r *httpRun, tr *tracer) (*loopResult, *inprocStats, error) {
	h0 := heapAlloc()
	br, gw, _, err := broker(policy.Speed{}, false, tr)
	if err != nil {
		return nil, nil, err
	}
	var h http.Handler = api.NewServer(gw)
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	loop := runOpenLoop(b.ctx, "http://"+ln.Addr().String(), r.reqs, r.bodies, r.jobs, httpConns())
	ctx, cancel := context.WithTimeout(b.ctx, 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-served
	if _, err := gw.Drain(); err != nil {
		return nil, nil, err
	}
	b.loopOps(loop)
	if br.Finished() != loop.accepted {
		b.ops(0, fmt.Errorf("in-process broker finished %d of %d accepted jobs", br.Finished(), loop.accepted), 1)
	}
	if tr != nil {
		b.set("metrics.summaries_us", summariesUs(br))
	}
	st := &inprocStats{jobs: loop.accepted, heapBytes: heapAlloc() - h0}
	for _, d := range loop.queueDepth {
		st.depthSum += d
		st.depthN++
	}
	return loop, st, nil
}

// trainInProcess reruns the table2-batch model training through
// rlsched.Train with ppotrain's settings; the model must equal the one
// ppotrain wrote.
func (b *bench) trainInProcess(model string) error {
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, fleetSeed)
	if err != nil {
		return err
	}
	gymCfg := rlsched.DefaultGymConfig()
	gymCfg.Seed = trainSeed
	ppoCfg := rl.DefaultPPOConfig()
	ppoCfg.Seed = trainSeed
	t0 := time.Now()
	pol, _, err := rlsched.Train(rlsched.InfoFromFleet(fleet), gymCfg, ppoCfg, trainSteps, nil)
	b.set("rl.train_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	path := b.path("model-inproc.json")
	if err := rlsched.SavePolicy(path, pol); err != nil {
		return err
	}
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		err = fmt.Errorf("in-process training wrote a different model than ppotrain")
	}
	b.op(err)
	return nil
}

// spanMetrics derives the per-layer metrics the spans cover; jobs is the
// traced pass's job count.
func (b *bench) spanMetrics(tr *tracer, st *inprocStats) {
	jobs := float64(st.jobs)
	perJob := func(ns int64) float64 { return float64(ns) / 1e3 / jobs }
	simStep, coreStep := tr.get("sim.step"), tr.get("core.step")
	if n := simStep.count + coreStep.count; n > 0 {
		b.set("sim.events_per_job", float64(n)/jobs)
		b.set("sim.self_us_per_job", perJob(simStep.selfNs))
		b.set("core.self_us_per_job", perJob(coreStep.selfNs))
	}
	if st.depthN > 0 {
		b.set("core.queue_depth_mean", st.depthSum/float64(st.depthN))
	}
	var calls int64
	for _, p := range table2Policies {
		if a := tr.get("policy." + p); a.count > 0 {
			b.set("policy."+p+".ns_per_call", float64(a.totalNs)/float64(a.count))
			calls += a.count
		}
	}
	if calls > 0 {
		b.set("policy.calls_per_job", float64(calls)/jobs)
		b.set("policy.placed_ratio", float64(tr.count("policy.placed"))/float64(calls))
	}
	if a := tr.get("job.decode"); a.count > 0 {
		b.set("job.decode_us_per_job", perJob(a.totalNs))
	}
	if a := tr.get("records.recorder"); a.count > 0 {
		b.set("records.recorder_us_per_job", perJob(a.totalNs))
	}
	if a := tr.get("records.write_csv"); a.count > 0 {
		b.set("records.write_csv_ms", float64(a.totalNs)/1e6/float64(a.count))
	}
	if a := tr.get("api.gateway"); a.count > 0 {
		b.set("api.gateway_self_us_per_job", perJob(a.selfNs))
	}
}

// finishTrace writes the span log and reports the tracing overhead: the
// traced pass's wall time over the same pass with the wrappers off. The
// retained heap comes from the pass with the wrappers off, which keeps
// no span log.
func (b *bench) finishTrace(tr *tracer, traced, plain *inprocStats) error {
	b.spanMetrics(tr, traced)
	b.set("records.heap_bytes_per_job", plain.heapBytes/float64(plain.jobs))
	b.set("trace.overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds())
	return tr.writeJSONL(filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed)))
}

func (b *bench) traceBatch(s batchSpec, model string) error {
	run, err := b.batchRounds(s, model, 0)
	if err != nil {
		return err
	}
	b.set("qcloudsim.stdout_bytes_per_job", run.stdoutPerJob)
	plain, err := b.inprocBatch(s, run.csv, model, run.digests, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := b.inprocBatch(s, run.csv, model, run.digests, tr)
	if err != nil {
		return err
	}
	return b.finishTrace(tr, traced, plain)
}

func traceTable2(b *bench) error {
	model, _, err := b.train(1)
	if err != nil {
		return err
	}
	if err := b.trainInProcess(model); err != nil {
		return err
	}
	return b.traceBatch(table2Spec, model)
}

func traceBackfill(b *bench) error {
	return b.traceBatch(backfillSpec, "")
}

func traceServe(b *bench) error {
	lines, ndjson, ref, err := b.serveInputs()
	if err != nil {
		return err
	}
	stdout, err := b.serveRounds(lines, ref, 0)
	if err != nil {
		return err
	}
	b.set("qcloudsim.stdout_bytes_per_job", stdout)
	plain, err := b.inprocServe(ndjson, ref, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := b.inprocServe(ndjson, ref, tr)
	if err != nil {
		return err
	}
	return b.finishTrace(tr, traced, plain)
}

func traceHTTP(b *bench) error {
	run, err := b.httpBinary()
	if err != nil {
		return err
	}
	for name, v := range httpSplit(run) {
		b.set(name, v)
	}
	b.set("qcloudsim.stdout_bytes_per_job", run.stdout)
	plainLoop, plain, err := b.inprocHTTP(run, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	// The server decodes each body with StreamDecoder inside api.Server,
	// out of the wrappers' reach; decode the same bodies here to time the
	// job layer on this workload's input.
	for _, body := range run.bodies {
		dec := job.NewStreamDecoder(bytes.NewReader(body))
		for {
			var err error
			within(tr, "job.decode", "", func() { _, err = dec.Next() })
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	loop, traced, err := b.inprocHTTP(run, tr)
	if err != nil {
		return err
	}
	if err := b.finishTrace(tr, traced, plain); err != nil {
		return err
	}
	// With an open loop the wall time is the schedule's; the overhead is
	// the mean service time instead.
	service, plainService := mean(millis(loop.service)), mean(millis(plainLoop.service))
	b.set("trace.overhead_ratio", service/plainService)
	// Broker work under a submit handler is policy and recorder time;
	// the rest of the handler, less the body decode, is the gateway's
	// lock wait, clock advance and offer plus the response encoding.
	submit, read := tr.get("api.submit"), tr.get("api.read")
	var children int64
	for _, p := range table2Policies {
		children += tr.get("policy." + p).totalNs
	}
	children += tr.get("records.recorder").totalNs + tr.get("job.decode").totalNs
	jobs := float64(traced.jobs)
	b.set("api.gateway_self_us_per_job", float64(submit.totalNs-children)/1e3/jobs)
	if submit.count > 0 {
		b.set("api.handler_submit_us", float64(submit.totalNs)/1e3/float64(submit.count))
	}
	if read.count > 0 {
		b.set("api.handler_read_us", float64(read.totalNs)/1e3/float64(read.count))
	}
	if n := submit.count + read.count; n > 0 {
		handler := float64(submit.totalNs+read.totalNs) / 1e3 / float64(n)
		b.set("http.transport_us", service*1e3-handler)
	}
	return nil
}

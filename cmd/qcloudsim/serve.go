package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/records"
	"repro/internal/retry"
	"repro/internal/sim"
)

// serveJobRetention bounds the job index: how many terminal jobs stay
// queryable via GET /v1/jobs/{id} after completion. Live jobs are
// always indexed; only finished/dropped history is evicted FIFO.
const serveJobRetention = 65536

// serveOptions carries the broker service-mode configuration.
type serveOptions struct {
	// cloud is the fleet, policy and model served, built as in batch.
	cloud

	// listen is a TCP host:port; empty means read the job stream from
	// stdin (the reader passed to runServe).
	listen string
	// httpAddr is the HTTP control-plane host:port; empty disables it.
	// The HTTP API serves concurrently with the stdin/TCP NDJSON paths
	// against the same live simulation.
	httpAddr string
	// admit is the admission-control policy; zero admits everything.
	admit core.AdmissionConfig
	// timeScale maps wall time to simulated time (sim seconds per wall
	// second). 0 runs in logical time: the clock jumps to each job's
	// arrival_time, giving bit-reproducible transcripts.
	timeScale float64
	// window is the rolling-metrics window capacity per tenant.
	window int
	// metricsEvery emits a metrics line every that many simulated
	// seconds; 0 emits only the final summary line.
	metricsEvery float64

	checkpointPath  string
	checkpointEvery float64
	resume          bool
	// supervise restarts a crashed logical-time broker from its latest
	// checkpoint, keeping the stream lines after that checkpoint for the
	// replay. Without it a crash ends the run and no line is kept.
	supervise bool

	// export writes the full per-job records CSV at shutdown. Only when
	// set does the broker keep per-job history, as encoded CSV rows;
	// without it service-mode memory stays flat indefinitely.
	export string

	// inj, if set, injects faults into the ingest and HTTP layers:
	// stream readers are wrapped (cut/stall), logical-time stdin lines
	// pass its line rules (crash/garble/cut/stall), and the HTTP control
	// plane's handler chain gains the fault middleware (error/delay/
	// reset/sever). nil serves undisturbed.
	inj *faults.Injector

	// onListen, if set, receives the bound TCP address (tests bind :0).
	onListen func(net.Addr)
	// onHTTP, if set, receives the bound HTTP address (tests bind :0).
	onHTTP func(net.Addr)
}

// metricsLine is one rolling-metrics JSONL sample on the metrics stream.
type metricsLine struct {
	SimNow     float64                          `json:"sim_now"`
	WallS      *float64                         `json:"wall_s,omitempty"`
	Admitted   int                              `json:"admitted"`
	Finished   int                              `json:"finished"`
	Active     int                              `json:"active"`
	QueueDepth int                              `json:"queue_depth"`
	Admission  core.AdmissionStats              `json:"admission,omitzero"`
	Window     metrics.WindowSummary            `json:"window"`
	Tenants    map[string]metrics.WindowSummary `json:"tenants,omitempty"`
}

// server couples a broker with its output streams and periodic duties.
// warnf writes one operator status line. Status output is best-effort
// by design: a broken stderr must not take the broker down with it.
func warnf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...) //lint:allow errlint operator status lines are best-effort; a broken stderr must not stop the broker
}

type server struct {
	opts serveOptions
	b    *core.Broker
	env  *sim.Environment
	gw   *api.Gateway

	idx        *core.JobIndex
	metricsOut *bufio.Writer
	// warnOut receives operator status lines (checkpoint failures, drain
	// summaries); best-effort by design.
	warnOut   io.Writer
	wallStart time.Time // zero in logical mode
	draining  bool
	// stopHTTP closes the HTTP control plane; set when -http is active.
	// shutdown calls it before draining so no handler races the drain.
	stopHTTP func()

	// ingested counts stream records fully applied to the broker; the
	// logical-time ingest loop keeps it current so checkpoints record how
	// far the input stream is durably covered (core.Checkpoint.Ingested).
	ingested int64
	// onCheckpointed, if set, observes every durable checkpoint; the
	// supervisor notes it, and the records it covers, as the state a
	// restarted incarnation rolls back to.
	onCheckpointed func(cp *core.Checkpoint)
}

// emitMetrics writes one metrics sample at the current simulated time.
func (s *server) emitMetrics() {
	now := s.env.Now()
	tw := s.b.Windows()
	line := metricsLine{
		SimNow:     now,
		Admitted:   s.b.Admitted(),
		Finished:   s.b.Finished(),
		Active:     s.b.Active(),
		QueueDepth: s.b.QueueDepth(),
		Admission:  s.b.AdmissionCounters(),
		Window:     tw.Global().Summary(now),
		Tenants:    tw.Summaries(now),
	}
	if !s.wallStart.IsZero() {
		w := time.Since(s.wallStart).Seconds()
		line.WallS = &w
	}
	data, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.metricsOut.Write(data)
	s.metricsOut.WriteByte('\n')
	s.metricsOut.Flush() //lint:allow errlint metrics emission is best-effort; a broken metrics pipe must not stop the broker
}

// checkpointWriteRetry rides out transient filesystem hiccups on the
// checkpoint path (the snapshot itself is cheap to re-encode). Each
// attempt rebuilds the temp file from scratch, so a half-written temp
// from a failed try is simply overwritten.
var checkpointWriteRetry = retry.Policy{
	MaxAttempts: 3,
	BaseDelay:   50 * time.Millisecond,
	MaxDelay:    500 * time.Millisecond,
	Seed:        1,
}

// writeCheckpoint snapshots the broker if it is quiescent. Non-quiescent
// ticks are skipped: the next quiescent tick (or the final drain) covers
// them.
func (s *server) writeCheckpoint() error {
	if s.opts.checkpointPath == "" || !s.b.Quiescent() {
		return nil
	}
	cp, err := s.b.Checkpoint()
	if err != nil {
		return err
	}
	// A quiescent broker implies a quiescent index; the snapshot rides
	// in the same file so -resume restores the status API's history too.
	cp.Jobs, err = s.idx.Checkpoint()
	if err != nil {
		return err
	}
	cp.Ingested = s.ingested
	err = checkpointWriteRetry.Do(context.Background(), func(context.Context) error {
		tmp := s.opts.checkpointPath + ".tmp"
		if err := writeFile(tmp, cp.Encode); err != nil {
			return err
		}
		return os.Rename(tmp, s.opts.checkpointPath)
	})
	if err != nil {
		return err
	}
	if s.onCheckpointed != nil {
		s.onCheckpointed(cp)
	}
	return nil
}

// scheduleTicks installs the self-rescheduling metrics and checkpoint
// timers. They stop re-arming once draining begins so the event queue
// can run dry.
func (s *server) scheduleTicks() {
	if every := s.opts.metricsEvery; every > 0 {
		var tick func()
		tick = func() {
			s.emitMetrics()
			if !s.draining {
				s.env.AfterFunc(every, tick)
			}
		}
		s.env.AfterFunc(every, tick)
	}
	if every := s.opts.checkpointEvery; every > 0 && s.opts.checkpointPath != "" {
		var tick func()
		tick = func() {
			if err := s.writeCheckpoint(); err != nil {
				// A silently failing checkpoint would defeat -resume:
				// tell the operator every tick it happens.
				warnf(s.warnOut, "qcloudsim: checkpoint: %v\n", err)
			}
			if !s.draining {
				s.env.AfterFunc(every, tick)
			}
		}
		s.env.AfterFunc(every, tick)
	}
}

// shutdown stops the HTTP control plane, drains admitted jobs, emits the
// final metrics sample, and writes the final checkpoint. The caller
// writes the export.
func (s *server) shutdown(errOut io.Writer) error {
	if s.stopHTTP != nil {
		s.stopHTTP()
		s.stopHTTP = nil
	}
	s.draining = true
	end, err := s.gw.Drain()
	if err != nil {
		return err
	}
	s.emitMetrics()
	if err := s.writeCheckpoint(); err != nil {
		return err
	}
	warnf(errOut, "qcloudsim: broker drained: %d jobs finished, sim time %.2f s\n",
		s.b.Finished(), end)
	return nil
}

// startHTTP binds the HTTP control plane and serves it in the
// background until shutdown.
func (s *server) startHTTP(errOut io.Writer) error {
	ln, err := net.Listen("tcp", s.opts.httpAddr)
	if err != nil {
		return err
	}
	var handler http.Handler = api.NewServer(s.gw)
	if s.opts.inj != nil {
		handler = s.opts.inj.Middleware(handler)
	}
	hs := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //lint:allow errlint Serve always returns non-nil: ErrServerClosed on the shutdown path, and bind errors were caught at Listen
	}()
	warnf(errOut, "qcloudsim: HTTP control plane on http://%s\n", ln.Addr())
	if s.opts.onHTTP != nil {
		s.opts.onHTTP(ln.Addr())
	}
	s.stopHTTP = func() {
		// Let in-flight handlers finish (they only hold the gateway
		// lock briefly), but don't wait forever on a stalled client.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close() //lint:allow errlint forced close after a failed graceful shutdown; there is no further fallback to report to
		}
		<-done
	}
	return nil
}

// loadCheckpoint reads and decodes a checkpoint file for -resume.
func loadCheckpoint(path string) (*core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	cp, err := core.DecodeCheckpoint(f)
	f.Close() //lint:allow errlint close of a read-only checkpoint file cannot lose data
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	return cp, nil
}

// buildServer assembles a broker service instance — environment (at the
// checkpoint's simulated time when resuming), fleet, job index, records
// pipeline, broker, admission, restore, and gateway — and starts its
// periodic ticks and, with -http, the HTTP control plane. The broker
// records into rec unless it is nil.
func buildServer(opts serveOptions, cp *core.Checkpoint, rec *records.ExportRecorder, out, errOut io.Writer) (*server, error) {
	var env *sim.Environment
	if cp != nil {
		env = sim.NewEnvironmentAt(cp.SimNow)
	} else {
		env = sim.NewEnvironment()
	}
	fleet, pol, err := opts.build(env)
	if err != nil {
		return nil, err
	}
	idx, err := core.NewJobIndex(serveJobRetention)
	if err != nil {
		return nil, err
	}
	recorder := core.MultiRecorder{}
	if rec != nil {
		recorder = append(recorder, rec)
	}
	// Only GET /v1/jobs/{id} and checkpoints (cp.Jobs) read the index.
	// Without -http or -checkpoint it stays empty: feeding it would cost
	// map churn and GC scanning of its retained entries on every job,
	// for no reader. The gateway holds it either way.
	if opts.httpAddr != "" || opts.checkpointPath != "" {
		recorder = append(recorder, idx)
	}
	em := newFinishEmitter(out)
	recorder = append(recorder, em)
	b, err := core.NewBroker(env, fleet, pol, opts.cfg, recorder, opts.window)
	if err != nil {
		return nil, err
	}
	if err := b.SetAdmission(opts.admit); err != nil {
		return nil, err
	}
	if cp != nil {
		if err := b.Restore(cp); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		if cp.Jobs != nil {
			if err := idx.Restore(cp.Jobs); err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
		}
	}
	// Lines a restore produced (re-admitted and restarted jobs) go out
	// now; from here on every gateway call writes its own.
	em.flush()
	gw, err := api.NewGateway(b, idx, opts.timeScale == 0)
	if err != nil {
		return nil, err
	}
	gw.SetFlush(em.flush)
	s := &server{opts: opts, b: b, env: env, gw: gw, idx: idx, metricsOut: bufio.NewWriter(errOut), warnOut: errOut}
	s.scheduleTicks()
	if opts.httpAddr != "" {
		if err := s.startHTTP(errOut); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runServe runs the broker service: jobs arrive as line-delimited JSON
// (stdin or TCP) and/or over the HTTP API, are injected into the live
// event core, and lifecycle records stream to out while rolling metrics
// stream to errOut. In logical time stdin goes through serveLogical's
// line loop; in real time stdin or TCP feeds runRealTime.
func runServe(ctx context.Context, opts serveOptions, in io.Reader, out, errOut io.Writer) error {
	var cp *core.Checkpoint
	if opts.resume {
		var err error
		if cp, err = loadCheckpoint(opts.checkpointPath); err != nil {
			return err
		}
		// The checkpoint's stream position described the run that wrote
		// it; this invocation reads a new stream from its beginning.
		cp.Ingested = 0
	}
	// The recorder keeps the -export CSV: the live jobs, and the rows of
	// the sealed ones. Without -export no per-job history is kept.
	var rec *records.ExportRecorder
	if opts.export != "" {
		rec = records.NewExportRecorder()
	}
	if opts.timeScale == 0 {
		return serveLogical(ctx, opts, cp, rec, in, out, errOut)
	}
	s, err := buildServer(opts, cp, rec, out, errOut)
	if err != nil {
		return err
	}
	// Slack so the decoders run a little ahead of admission.
	jobs := make(chan *job.QJob, 64)
	stdinErr := make(chan error, 1)
	if opts.listen != "" {
		if err := s.listenTCP(ctx, jobs, errOut); err != nil {
			return err
		}
	} else {
		go func() {
			defer close(jobs)
			stdinErr <- s.feed(ctx, in, "", 0, jobs)
		}()
	}
	s.wallStart = time.Now()
	s.runRealTime(ctx, jobs)
	select {
	case err := <-stdinErr:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		// The stdin feed may be blocked on a read; abandon it and drain
		// what was admitted. TCP connections end with the context.
	}
	if err := s.shutdown(errOut); err != nil {
		return err
	}
	return writeExport(opts.export, rec)
}

// feed decodes one NDJSON stream into jobs until EOF, a decode error,
// or cancellation, under the fault plan's ingest/read rules. remote
// names the TCP peer that delivered it (stamped on every job with
// connID as ingest provenance); empty means stdin.
func (s *server) feed(ctx context.Context, r io.Reader, remote string, connID int64, jobs chan<- *job.QJob) error {
	if s.opts.inj != nil {
		r = s.opts.inj.Reader(r)
	}
	dec := job.NewStreamDecoder(r)
	if remote != "" {
		dec.SetSource("tcp", remote, connID)
	}
	for {
		j, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case jobs <- j:
		case <-ctx.Done():
			return nil
		}
	}
}

// runRealTime advances the simulation clock in proportion to wall time
// (timeScale sim seconds per wall second), admitting jobs as the streams
// deliver them. Nominal arrival_time fields are ignored: arrival is
// when the job reaches the broker. Returns once the stream closes or the
// context is cancelled; the caller drains. With -http active, a closed
// stream does not end the service — the clock keeps ticking for HTTP
// traffic until cancellation.
func (s *server) runRealTime(ctx context.Context, jobs <-chan *job.QJob) {
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	advance := func() {
		s.gw.AdvanceTo(time.Since(s.wallStart).Seconds() * s.opts.timeScale)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case j, ok := <-jobs:
			if !ok {
				advance()
				if s.opts.httpAddr == "" {
					return
				}
				jobs = nil // keep ticking for HTTP submitters
				continue
			}
			advance()
			s.gw.Submit(j)
		case <-ticker.C:
			advance()
		}
	}
}

// listenTCP accepts line-delimited JSON job streams over TCP, any
// number of connections, all feeding jobs until the context is
// cancelled (SIGINT/SIGTERM). Each connection's jobs carry tcp ingest
// provenance (remote address and a server-side connection ID), so
// exports attribute every job to the connection that delivered it. A
// connection's stream error is logged and ends only that connection.
func (s *server) listenTCP(ctx context.Context, jobs chan<- *job.QJob, errOut io.Writer) error {
	ln, err := net.Listen("tcp", s.opts.listen)
	if err != nil {
		return err
	}
	if s.opts.onListen != nil {
		s.opts.onListen(ln.Addr())
	}
	warnf(errOut, "qcloudsim: broker listening on %s\n", ln.Addr())
	go func() {
		<-ctx.Done()
		ln.Close() //lint:allow errlint closing the listener is how cancellation unblocks Accept; the error has no consumer
	}()
	go func() {
		for connID := int64(1); ; connID++ {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed on cancellation
			}
			go func(c net.Conn, connID int64) {
				defer c.Close() //lint:allow errlint ingest connections are read-only; close errors carry no data loss

				if err := s.feed(ctx, c, c.RemoteAddr().String(), connID, jobs); err != nil {
					warnf(errOut, "qcloudsim: %s: %v\n", c.RemoteAddr(), err)
				}
			}(conn, connID)
		}
	}()
	return nil
}

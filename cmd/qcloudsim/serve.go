package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/retry"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// serveJobRetention bounds the job index: how many terminal jobs stay
// queryable via GET /v1/jobs/{id} after completion. Live jobs are
// always indexed; only finished/dropped history is evicted FIFO.
const serveJobRetention = 65536

// serveOptions carries the broker service-mode configuration.
type serveOptions struct {
	// run is the fleet, policy and model served, built as in batch; it
	// has no workload.
	run runspec.Run

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
	// resume restores the checkpoint at checkpointPath first. In logical
	// time the run then skips the stream lines the checkpoint covers,
	// and an export the checkpoint measured is continued (exportFile).
	resume bool

	// export is the per-job records CSV. Each row is written as it
	// seals (every earlier admission terminal), so the broker holds
	// only the live jobs and service-mode memory stays flat.
	export string

	// inj, if set, injects faults into the ingest and HTTP layers:
	// stream readers are wrapped (cut/stall), logical-time stdin lines
	// pass its line rules (crash/garble/cut/stall; a crash stops the run
	// with errCrash), and the HTTP control plane's handler chain gains
	// the fault middleware (error/delay/reset/sever). nil serves
	// undisturbed.
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
	em         *finishEmitter
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
	// export is the -export file; nil without -export.
	export *exportFile
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
// them. A quiescent broker has sealed every job it admitted, so the
// held lifecycle lines are written and the export flushed first, and
// the export's length recorded: a kill after the checkpoint loses only
// output of jobs that -resume runs again.
func (s *server) writeCheckpoint() error {
	if s.opts.checkpointPath == "" || !s.b.Quiescent() {
		return nil
	}
	cp, err := s.b.Checkpoint()
	if err != nil {
		return err
	}
	s.em.flush()
	if s.export != nil {
		if err := s.export.w.Flush(); err != nil {
			return fmt.Errorf("export %s: %w", s.export.path, err)
		}
		cp.ExportLen = s.export.n
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
	return err
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
// closes the export.
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
// records into export unless it is nil.
func buildServer(opts serveOptions, cp *core.Checkpoint, export *exportFile, out, errOut io.Writer) (*server, error) {
	var env *sim.Environment
	if cp != nil {
		env = sim.NewEnvironmentAt(cp.SimNow)
	} else {
		env = sim.NewEnvironment()
	}
	fleet, pol, _, err := opts.run.Build(env, policy.Params{})
	if err != nil {
		return nil, err
	}
	idx, err := core.NewJobIndex(serveJobRetention)
	if err != nil {
		return nil, err
	}
	recorder := core.MultiRecorder{}
	if export != nil {
		recorder = append(recorder, records.NewExportRecorder(export.w, export.start == 0))
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
	b, err := core.NewBroker(env, fleet, pol, opts.run.Model, recorder, opts.window)
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
	gw, err := api.NewGateway(b, idx, opts.timeScale == 0)
	if err != nil {
		return nil, err
	}
	gw.SetFlush(em.flush)
	s := &server{opts: opts, b: b, env: env, gw: gw, idx: idx, em: em, metricsOut: bufio.NewWriter(errOut), warnOut: errOut, export: export}
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
// line loop; in real time stdin or TCP feeds runRealTime. A run that
// fails, an injected crash included, stops without draining or a final
// checkpoint and leaves its export as the last flush did.
func runServe(ctx context.Context, opts serveOptions, in io.Reader, out, errOut io.Writer) (err error) {
	var cp *core.Checkpoint
	if opts.resume {
		if cp, err = loadCheckpoint(opts.checkpointPath); err != nil {
			return err
		}
	}
	var export *exportFile
	if opts.export != "" {
		if export, err = newExportFile(opts.export, cp); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				export.abandon()
			}
		}()
	}
	s, err := buildServer(opts, cp, export, out, errOut)
	if err != nil {
		return err
	}
	defer func() {
		if s.stopHTTP != nil {
			s.stopHTTP()
		}
	}()
	if opts.timeScale == 0 {
		if cp != nil {
			s.ingested = cp.Ingested
		}
		err = s.serveLogical(ctx, in)
	} else {
		err = s.serveRealTime(ctx, in, errOut)
	}
	if err != nil {
		return err
	}
	if err := s.shutdown(errOut); err != nil {
		return err
	}
	if export != nil {
		return export.close()
	}
	return nil
}

// serveLogical is the logical-time ingest loop, the one code that reads
// stdin in logical time. It skips the lines a resumed checkpoint covers
// (s.ingested), then decodes and submits each line, the clock jumping
// to each job's nominal arrival_time: a fixed stream yields a
// bit-reproducible transcript, and per-job records byte-identical to a
// batch run over the same workload. With -http the service keeps
// serving after stdin EOF until interrupted. An injected crash returns
// errCrash at once.
//
// The loop holds lifecycle lines across stream lines (SubmitHeld) and
// never blocks on stdin while it holds any: they are written before
// every read of stdin, even one that completes half a line, and when
// the loop returns (stream end, crash or error), besides the emitter's
// own emitChunk bound and each checkpoint. The flush comes before the
// fault plan's read rules, so an injected read stall waits with the
// lines already written.
func (s *server) serveLogical(ctx context.Context, in io.Reader) error {
	defer s.gw.Flush()
	if s.opts.inj != nil {
		in = s.opts.inj.Reader(in)
	}
	lr := job.NewLineReader(flushReader{in, s.gw.Flush})
	for pos := int64(0); pos < s.ingested; pos++ {
		if _, _, err := lr.Next(); errors.Is(err, io.EOF) {
			return fmt.Errorf("resume: the stream ends after %d lines, but the checkpoint covers %d; feed the stream the checkpointed run read",
				pos, s.ingested)
		} else if err != nil {
			return fmt.Errorf("job: reading stream: %w", err)
		}
	}
	for pos := s.ingested; ctx.Err() == nil; pos++ {
		raw, terminated, err := lr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("job: reading stream: %w", err)
		}
		if s.opts.inj != nil {
			var crash bool
			if raw, crash = s.opts.inj.Line(raw); crash {
				return fmt.Errorf("stream line %d: %w", pos+1, errCrash)
			}
		}
		j, err := job.DecodeRecord(raw, terminated)
		if err != nil {
			return fmt.Errorf("job: stream line %d: %w", pos+1, err)
		}
		if j != nil {
			s.gw.SubmitHeld(j)
		}
		// Only after SubmitHeld returns is the record fully applied; a
		// checkpoint tick firing inside its event advance must not
		// claim this line as durable.
		s.ingested = pos + 1
	}
	if s.opts.httpAddr != "" {
		<-ctx.Done()
	}
	return nil
}

// flushReader runs flush before every read of r, so a reader that
// blocks never leaves output held.
type flushReader struct {
	r     io.Reader
	flush func()
}

func (f flushReader) Read(p []byte) (int, error) {
	f.flush()
	return f.r.Read(p)
}

// serveRealTime feeds stdin, or with -listen the TCP streams, to
// runRealTime until they end or ctx is cancelled.
func (s *server) serveRealTime(ctx context.Context, in io.Reader, errOut io.Writer) error {
	// Slack so the decoders run a little ahead of admission.
	jobs := make(chan *job.QJob, 64)
	stdinErr := make(chan error, 1)
	if s.opts.listen != "" {
		if err := s.listenTCP(ctx, jobs, errOut); err != nil {
			return err
		}
	} else {
		go func() {
			defer close(jobs)
			stdinErr <- s.feed(ctx, in, "", 0, jobs)
		}()
	}
	//lint:allow detlint real-time serving paces the simulation clock by the wall clock on purpose; logical time (-time-scale 0) never reads it
	s.wallStart = time.Now()
	s.runRealTime(ctx, jobs)
	//lint:allow detlint either case ends the run with nothing left to record; the error or the cancellation only picks the exit status
	select {
	case err := <-stdinErr:
		return err
	case <-ctx.Done():
		// The stdin feed may be blocked on a read; abandon it and drain
		// what was admitted. TCP connections end with the context.
		return nil
	}
}

// errCrash ends a run stopped by an injected crash. The run stops as a
// kill would: no drain, no final checkpoint, no export flush; main
// exits with exitCrash.
var errCrash = errors.New("injected crash (stopped as a kill would; restart with -resume)")

// exportBuffer is the size of the buffer -export rows pass through on
// their way to the file.
const exportBuffer = 64 << 10

// exportFile is a serve run's -export CSV. The recorder writes each row
// into w as it seals; w reaches the file when it fills and at every
// checkpoint, which records the file's length. Nothing is fsynced: rows
// in the page cache survive a killed process, not a lost host.
//
// The file is opened by the first write that reaches it, so a run
// refused at startup leaves no file. A new export is created there; a
// resumed one is cut back to the checkpoint's length, dropping what a
// killed run wrote after its last checkpoint, and appended to.
type exportFile struct {
	path string
	w    *bufio.Writer
	f    *os.File
	// start is the length of the file this run continues; 0 starts a
	// new file with the header.
	start int64
	// n is the file's length once w is flushed.
	n int64
}

// newExportFile prepares path for a run that resumes cp (nil for a new
// run). A checkpoint that measured its export is continued, and the
// file must be there, at least that long; otherwise the run writes a
// new file.
func newExportFile(path string, cp *core.Checkpoint) (*exportFile, error) {
	e := &exportFile{path: path}
	if cp != nil && cp.ExportLen > 0 {
		fi, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("resume: export %s is missing; the checkpoint recorded %d bytes of it", path, cp.ExportLen)
		}
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		if fi.Size() < cp.ExportLen {
			return nil, fmt.Errorf("resume: export %s has %d bytes, fewer than the %d the checkpoint recorded", path, fi.Size(), cp.ExportLen)
		}
		e.start, e.n = cp.ExportLen, cp.ExportLen
	}
	e.w = bufio.NewWriterSize(e, exportBuffer)
	return e, nil
}

// open creates the file, or cuts a continued one to its start.
func (e *exportFile) open() (err error) {
	if e.start == 0 {
		e.f, err = os.Create(e.path)
		return err
	}
	if e.f, err = os.OpenFile(e.path, os.O_WRONLY, 0); err != nil {
		return err
	}
	if err := e.f.Truncate(e.start); err != nil {
		return err
	}
	_, err = e.f.Seek(e.start, io.SeekStart)
	return err
}

// Write is w's way to the file.
func (e *exportFile) Write(p []byte) (int, error) {
	if e.f == nil {
		if err := e.open(); err != nil {
			return 0, err
		}
	}
	n, err := e.f.Write(p)
	e.n += int64(n)
	return n, err
}

// close flushes the export and closes the file, opening it first if no
// row reached it (a resumed run still drops the killed run's tail).
func (e *exportFile) close() error {
	err := e.w.Flush()
	if err == nil && e.f == nil {
		err = e.open()
	}
	if e.f != nil {
		err = errors.Join(err, e.f.Close())
		e.f = nil
	}
	return err
}

// abandon closes the file without flushing, leaving it as a kill would.
func (e *exportFile) abandon() {
	if e.f != nil {
		e.f.Close() //lint:allow errlint the run already failed; the file stays as the last flush left it
	}
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
		//lint:allow detlint cancellation only stops the feed; a job races the context, which real-time serving cannot order anyway
		select {
		case jobs <- j:
		case <-ctx.Done():
			return nil
		}
	}
}

// runRealTime advances the simulation clock in proportion to wall time
// (timeScale sim seconds per wall second) from where it stands, the
// checkpoint's sim_now after -resume, admitting jobs as the streams
// deliver them. Nominal arrival_time fields are ignored: arrival is
// when the job reaches the broker. Returns once the stream closes or the
// context is cancelled; the caller drains. With -http active, a closed
// stream does not end the service — the clock keeps ticking for HTTP
// traffic until cancellation.
func (s *server) runRealTime(ctx context.Context, jobs <-chan *job.QJob) {
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	simStart := s.env.Now()
	advance := func() {
		s.gw.AdvanceTo(simStart + time.Since(s.wallStart).Seconds()*s.opts.timeScale)
	}
	for {
		//lint:allow detlint real-time admission follows wall-clock delivery by design; the deterministic replay path is serveLogical
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

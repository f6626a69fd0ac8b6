package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/records"
	"repro/internal/retry"
)

// brokerCrashError classifies an incarnation death the supervisor may
// recover from: a panic inside the broker loop (induced by a fault plan
// or otherwise), annotated with the stream position it struck at.
type brokerCrashError struct {
	cause string
	pos   int64
}

func (e *brokerCrashError) Error() string {
	return fmt.Sprintf("broker crashed at stream position %d: %s", e.pos, e.cause)
}

// superviseBackoff paces broker restarts: capped decorrelated jitter
// between respawns, and a bounded attempt budget that doubles as the
// crash-loop breaker's window. Only crash-class errors are retried;
// configuration and stream-decode errors stay terminal.
var superviseBackoff = retry.Policy{
	MaxAttempts: 6,
	BaseDelay:   50 * time.Millisecond,
	MaxDelay:    time.Second,
	Seed:        1,
	Classify: func(err error) bool {
		var ce *brokerCrashError
		return errors.As(err, &ce)
	},
}

// lineFeed owns the logical-time input stream's line splitting. With
// keep set (-supervise), lines are buffered from the last durable
// checkpoint onward, so a restarted incarnation replays exactly the
// records the dead broker had admitted but not yet made durable — the
// stream itself (stdin, a pipe) cannot be rewound. Without keep, each
// line is dropped once the next is read, so memory stays flat.
type lineFeed struct {
	lr   *job.LineReader
	keep bool
	// base is the absolute 0-based position of buf[0].
	base int64
	buf  [][]byte
	// cut is the position of a final line that lost its newline, or -1.
	cut int64
}

func newLineFeed(r io.Reader, keep bool) *lineFeed {
	return &lineFeed{lr: job.NewLineReader(r), keep: keep, cut: -1}
}

// line returns the record at absolute position pos, line ending
// stripped, reading ahead as needed; terminated is false for a final
// line cut before its newline. io.EOF once the stream is exhausted.
func (lf *lineFeed) line(pos int64) (raw []byte, terminated bool, err error) {
	if !lf.keep {
		lf.trim(pos)
	}
	if pos < lf.base {
		return nil, false, fmt.Errorf("stream position %d already trimmed (durable through %d)", pos, lf.base)
	}
	for pos >= lf.base+int64(len(lf.buf)) {
		raw, terminated, err := lf.lr.Next()
		if err != nil {
			return nil, false, err
		}
		if !terminated {
			lf.cut = lf.base + int64(len(lf.buf))
		}
		if lf.keep {
			raw = bytes.Clone(raw) // the reader reuses its buffer on the next read
		}
		lf.buf = append(lf.buf, raw)
	}
	return lf.buf[pos-lf.base], pos != lf.cut, nil
}

// trim drops lines before pos: durably covered by a checkpoint, or,
// without keep, already submitted.
func (lf *lineFeed) trim(pos int64) {
	n := min(pos-lf.base, int64(len(lf.buf)))
	if n <= 0 {
		return
	}
	lf.buf = slices.Delete(lf.buf, 0, int(n))
	lf.base += n
}

// recoveryEvent is one structured supervisor lifecycle line on stderr.
type recoveryEvent struct {
	Event       string  `json:"event"`
	Incarnation int     `json:"incarnation"`
	Pos         int64   `json:"pos"`
	SimNow      float64 `json:"sim_now"`
	Cause       string  `json:"cause,omitempty"`
}

// supervisor runs the logical-time ingest loop in broker incarnations.
// It holds the recovery state between incarnations: the latest durable
// checkpoint, the stream position it covers, and the run's one export
// recorder, which a restarted incarnation truncates to the CSV bytes
// sealed at that checkpoint. Checkpoints are quiescent, so every job
// admitted before one is sealed, and the replay records exactly the
// rest again. Without -supervise there is exactly one incarnation, and
// a crash ends the run.
type supervisor struct {
	opts   serveOptions
	out    io.Writer
	errOut io.Writer
	feed   *lineFeed
	// rec is the run's export recorder; nil without -export.
	rec *records.ExportRecorder

	// cp is the latest durable checkpoint; nil before the first one.
	cp *core.Checkpoint
	// durable is the stream position cp covers: lines < durable are
	// fully reflected in cp and never replayed.
	durable int64
	// mark is rec.Len() when cp was written, or at the start.
	mark int

	incarnation int
}

// serveLogical runs broker incarnations over the stdin stream in
// logical time until it drains. With -supervise a crashed incarnation
// restarts from the latest atomic checkpoint until the crash-loop
// breaker trips; without it the crash ends the run with no export.
func serveLogical(ctx context.Context, opts serveOptions, cp *core.Checkpoint, rec *records.ExportRecorder, in io.Reader, out, errOut io.Writer) error {
	if opts.inj != nil {
		in = opts.inj.Reader(in)
	}
	sup := &supervisor{opts: opts, out: out, errOut: errOut, feed: newLineFeed(in, opts.supervise), rec: rec, cp: cp}
	if rec != nil {
		sup.mark = rec.Len()
	}
	for {
		before := sup.durable
		var err error
		if opts.supervise {
			err = superviseBackoff.Do(ctx, sup.runIncarnation)
		} else {
			err = sup.runIncarnation(ctx)
		}
		if err == nil {
			return nil
		}
		var ce *brokerCrashError
		if !opts.supervise || !errors.As(err, &ce) {
			return err
		}
		if sup.durable == before {
			return fmt.Errorf("supervise: crash-loop breaker: %d restart(s) without progress past stream position %d: %w",
				superviseBackoff.MaxAttempts, sup.durable, err)
		}
		// Real progress was checkpointed during the exhausted budget:
		// keep going with a fresh one.
	}
}

// event emits one structured recovery line; best-effort by design.
func (sup *supervisor) event(kind string, pos int64, simNow float64, cause string) {
	data, err := json.Marshal(recoveryEvent{
		Event: kind, Incarnation: sup.incarnation, Pos: pos, SimNow: simNow, Cause: cause,
	})
	if err != nil {
		return
	}
	fmt.Fprintf(sup.errOut, "%s\n", data) //lint:allow errlint recovery events are operator telemetry; a broken stderr must not stop recovery
}

// runIncarnation runs one broker life: build (restoring the latest
// checkpoint), ingest from the durable stream position, drain, final
// checkpoint and, once the stream is done, the export. The clock jumps to each job's nominal arrival_time, so a
// fixed stream yields a bit-reproducible transcript — and per-job
// records byte-identical to a batch run over the same workload. With
// -http the service keeps serving after stdin EOF until interrupted. A
// panic anywhere in the broker loop — including induced ingest crashes
// — converts to a *brokerCrashError.
func (sup *supervisor) runIncarnation(ctx context.Context) (err error) {
	sup.incarnation++
	if sup.rec != nil {
		sup.rec.Truncate(sup.mark)
	}

	s, err := buildServer(sup.opts, sup.cp, sup.rec, sup.out, sup.errOut)
	if err != nil {
		return err
	}
	s.ingested = sup.durable
	if sup.opts.supervise {
		s.onCheckpointed = func(cp *core.Checkpoint) {
			sup.cp = cp
			sup.durable = cp.Ingested
			if sup.rec != nil {
				sup.mark = sup.rec.Len()
			}
			sup.feed.trim(cp.Ingested)
		}
	}
	defer func() {
		if s.stopHTTP != nil {
			s.stopHTTP()
		}
	}()

	pos := sup.durable
	if sup.incarnation > 1 {
		sup.event("recover", pos, s.env.Now(), "")
	}
	defer func() {
		if r := recover(); r != nil {
			cause := fmt.Sprint(r)
			sup.event("crash", pos, s.env.Now(), cause)
			err = &brokerCrashError{cause: cause, pos: pos}
		}
	}()

	for ; ctx.Err() == nil; pos++ {
		raw, terminated, ferr := sup.feed.line(pos)
		if errors.Is(ferr, io.EOF) {
			break
		}
		if ferr != nil {
			return fmt.Errorf("job: reading stream: %w", ferr)
		}
		if sup.opts.inj != nil {
			raw = sup.opts.inj.Line(pos, raw) // may panic with an induced *faults.Crash
		}
		j, derr := job.DecodeRecord(raw, terminated)
		if derr != nil {
			return fmt.Errorf("job: stream line %d: %w", pos+1, derr)
		}
		if j != nil {
			s.gw.Submit(j)
		}
		// Only after Submit returns is the record fully applied; a
		// checkpoint tick firing inside Submit's event advance must not
		// claim this line as durable.
		s.ingested = pos + 1
	}
	if sup.opts.httpAddr != "" {
		<-ctx.Done()
	}
	if err := s.shutdown(sup.errOut); err != nil {
		return err
	}
	return writeExport(sup.opts.export, sup.rec)
}

// writeExport writes rec's per-job records CSV to path; a nil rec
// (no -export) writes nothing.
func writeExport(path string, rec *records.ExportRecorder) error {
	if rec == nil {
		return nil
	}
	return writeFile(path, rec.WriteCSV)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
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

// lineFeed owns the input stream's line splitting for the supervisor.
// Lines are buffered from the last durable checkpoint onward, so a
// restarted incarnation replays exactly the records the dead broker had
// admitted but not yet made durable — the stream itself (stdin, a pipe)
// cannot be rewound.
type lineFeed struct {
	br *bufio.Reader
	// base is the absolute 0-based position of buf[0].
	base int64
	buf  [][]byte
	eof  bool
}

func newLineFeed(r io.Reader) *lineFeed {
	return &lineFeed{br: bufio.NewReaderSize(r, 64<<10)}
}

// line returns the raw record at absolute position pos, newline
// stripped, reading ahead as needed. io.EOF once the stream is
// exhausted.
func (lf *lineFeed) line(pos int64) ([]byte, error) {
	if pos < lf.base {
		return nil, fmt.Errorf("supervise: stream position %d already trimmed (durable through %d)", pos, lf.base)
	}
	for pos >= lf.base+int64(len(lf.buf)) {
		if lf.eof {
			return nil, io.EOF
		}
		raw, err := lf.br.ReadBytes('\n')
		if len(raw) > 0 {
			lf.buf = append(lf.buf, bytes.TrimRight(raw, "\r\n"))
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return nil, err
			}
			lf.eof = true
		}
	}
	return lf.buf[pos-lf.base], nil
}

// trim drops lines durably covered by a checkpoint.
func (lf *lineFeed) trim(pos int64) {
	if pos <= lf.base {
		return
	}
	n := min(pos-lf.base, int64(len(lf.buf)))
	lf.buf = lf.buf[n:]
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

// supervisor runs broker incarnations under crash recovery. It holds
// the authoritative recovery state between incarnations: the latest
// durable checkpoint, the stream position it covers, and the finished
// per-job rows it archives (a fresh records.Manager per incarnation
// sidesteps duplicate-lifecycle panics; the supervisor stitches rows
// across incarnations at export time).
type supervisor struct {
	opts   serveOptions
	out    io.Writer
	errOut io.Writer
	feed   *lineFeed
	inj    *faults.Injector

	// cp is the latest durable checkpoint; nil before the first one.
	cp *core.Checkpoint
	// durable is the stream position cp covers: lines < durable are
	// fully reflected in cp and never replayed.
	durable int64
	// base holds rows archived by checkpoints of completed prior
	// incarnations; archive additionally covers the current
	// incarnation's latest checkpoint.
	base, archive []*records.JobStats

	incarnation int
	finalRows   []*records.JobStats
}

// runSupervised is the -serve -supervise entry point: it runs broker
// incarnations over the input stream, restarting from the latest
// atomic checkpoint when one crashes, until the stream drains or the
// crash-loop breaker trips.
func runSupervised(ctx context.Context, opts serveOptions, inj *faults.Injector, in io.Reader, out, errOut io.Writer) error {
	sup := &supervisor{opts: opts, out: out, errOut: errOut, feed: newLineFeed(in), inj: inj}
	if opts.resume {
		cp, err := loadCheckpoint(opts.checkpointPath)
		if err != nil {
			return err
		}
		// The checkpoint's stream position described the run that wrote
		// it; this invocation reads a new stream from its beginning.
		cp.Ingested = 0
		sup.cp = cp
	}
	for {
		before := sup.durable
		err := superviseBackoff.Do(ctx, sup.runIncarnation)
		if err == nil {
			return sup.writeExport()
		}
		var ce *brokerCrashError
		if !errors.As(err, &ce) {
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
// checkpoint. A panic anywhere in the broker loop — including induced
// ingest crashes — converts to a *brokerCrashError for the restart
// policy.
func (sup *supervisor) runIncarnation(ctx context.Context) (err error) {
	sup.incarnation++
	sup.base = sup.archive

	opts := sup.opts
	// The supervisor stitches the export across incarnations itself;
	// the per-incarnation server must not write a partial file.
	opts.export = ""
	s, err := buildServer(opts, sup.cp, sup.out, sup.errOut, sup.opts.export != "")
	if err != nil {
		return err
	}
	s.ingested = sup.durable
	s.onCheckpointed = func(cp *core.Checkpoint, rows []*records.JobStats) {
		sup.cp = cp
		sup.durable = cp.Ingested
		sup.archive = append(append([]*records.JobStats{}, sup.base...), rows...)
		sup.feed.trim(cp.Ingested)
	}
	s.scheduleTicks()

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

	for ; ; pos++ {
		if ctx.Err() != nil {
			break
		}
		raw, ferr := sup.feed.line(pos)
		if errors.Is(ferr, io.EOF) {
			break
		}
		if ferr != nil {
			return ferr
		}
		line := raw
		if sup.inj != nil {
			line = sup.inj.Line(pos, raw) // may panic with an induced *faults.Crash
		}
		if len(bytes.TrimSpace(line)) == 0 {
			s.ingested = pos + 1
			continue
		}
		j, derr := job.DecodeLine(line)
		if derr != nil {
			return fmt.Errorf("supervise: stream line %d: %w", pos+1, derr)
		}
		s.gw.Submit(j)
		// Only after Submit returns is the record fully applied; a
		// checkpoint tick firing inside Submit's event advance must not
		// claim this line as durable.
		s.ingested = pos + 1
	}
	if err := s.shutdown(sup.errOut); err != nil {
		return err
	}
	// The drain checkpoint fired onCheckpointed, so archive now covers
	// every finished job across all incarnations.
	sup.finalRows = sup.archive
	return nil
}

// writeExport writes the stitched per-job records CSV — byte-identical
// to the CSV an uninterrupted run would have exported.
func (sup *supervisor) writeExport() error {
	if sup.opts.export == "" {
		return nil
	}
	return writeFile(sup.opts.export, func(w io.Writer) error { return records.WriteStatsCSV(w, sup.finalRows) })
}

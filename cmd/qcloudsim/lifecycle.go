package main

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"repro/internal/job"
)

// emitChunk bounds the lifecycle lines held between flushes: once the
// held lines pass it they are written, whole, at once. It bounds both a
// single gateway call that produces many lines (the drain of a deep
// queue, a huge HTTP batch) and the lines the logical-time stdin loop
// holds across stream lines. It is kept small because a held line is a
// late line: the first line of a long burst waits until the bound
// fills, for a quarter of the jobs at 16 KiB that it waited for at
// 64 KiB.
const emitChunk = 16 << 10

// finishEmitter streams job lifecycle events as JSON lines. Each event
// appends one line to a reused buffer; flush writes the buffered lines
// in one call. The gateway flushes at the end of every call that drives
// the broker, except the logical-time stdin loop's submits
// (Gateway.SubmitHeld), whose lines it holds until the loop reads more
// of stdin, a checkpoint is written or the loop returns; and the
// emitter writes whenever its lines pass emitChunk.
//
// The bytes are exactly json.Encoder's for the line
//
//	{"event":..,"job_id":..,"t":..,"reason":..,"fidelity":..,"comm_time":..,"devices":[..]}
//
// with reason and devices omitted when empty and fidelity and
// comm_time present only on finish lines. A non-finite number drops
// the line, as Encode's error did.
type finishEmitter struct {
	w   io.Writer
	buf []byte
}

func newFinishEmitter(w io.Writer) *finishEmitter {
	return &finishEmitter{w: w, buf: make([]byte, 0, 4096)}
}

// flush writes the buffered lines.
func (e *finishEmitter) flush() {
	if len(e.buf) == 0 {
		return
	}
	e.w.Write(e.buf) //lint:allow errlint lifecycle emission is best-effort; a broken out pipe must not crash the broker
	e.buf = e.buf[:0]
}

// Arrival implements core.StreamRecorder.
//
//repro:noalloc
func (e *finishEmitter) Arrival(j *job.QJob, t float64) {
	e.line("arrival", j.ID, t, "")
}

// Start implements core.StreamRecorder.
//
//repro:noalloc
func (e *finishEmitter) Start(jobID string, t float64) {
	e.line("start", jobID, t, "")
}

// Finish implements core.StreamRecorder.
//
//repro:noalloc
func (e *finishEmitter) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	if !finite(finish) || !finite(fidelity) || !finite(commTime) {
		return
	}
	b := appendHead(e.buf, "finish", jobID, finish)
	b = append(b, `,"fidelity":`...)
	b = appendFloat(b, fidelity)
	b = append(b, `,"comm_time":`...)
	b = appendFloat(b, commTime)
	if len(deviceNames) > 0 {
		b = append(b, `,"devices":[`...)
		for i, name := range deviceNames {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	e.end(b)
}

// Drop implements core.StreamRecorder: an admission-control refusal or
// shed, with the reason on the line.
//
//repro:noalloc
func (e *finishEmitter) Drop(j *job.QJob, t float64, reason string) {
	e.line("drop", j.ID, t, reason)
}

// line appends an arrival, start or drop line.
//
//repro:noalloc
func (e *finishEmitter) line(event, jobID string, t float64, reason string) {
	if !finite(t) {
		return
	}
	b := appendHead(e.buf, event, jobID, t)
	if reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, reason)
	}
	e.end(b)
}

// end closes the line and flushes once the buffer passes emitChunk.
//
//repro:noalloc
func (e *finishEmitter) end(b []byte) {
	b = append(b, '}', '\n')
	e.buf = b
	if len(e.buf) >= emitChunk {
		e.flush()
	}
}

// appendHead appends the fields every line starts with.
//
//repro:noalloc
func appendHead(b []byte, event, jobID string, t float64) []byte {
	b = append(b, `{"event":"`...)
	b = append(b, event...)
	b = append(b, `","job_id":`...)
	b = appendString(b, jobID)
	b = append(b, `,"t":`...)
	return appendFloat(b, t)
}

// finite reports whether JSON can carry f: encoding/json refuses NaN
// and ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f as encoding/json formats a float64:
// 'f', or 'e' with a two-digit exponent trimmed to one below 1e-6 and
// from 1e21 on.
//
//repro:noalloc
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII that JSON
// (with encoding/json's HTML escaping) leaves alone is copied as it
// is; anything else goes through appendEscaped.
//
//repro:noalloc
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	b = append(b, '"')
	return b
}

// appendEscaped is appendString's rare path: encoding/json quotes s, so
// the escaping rules live in one place.
func appendEscaped(b []byte, s string) []byte {
	q, _ := json.Marshal(s) //lint:allow errlint json.Marshal of a Go string cannot fail
	return append(b, q...)
}

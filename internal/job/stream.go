package job

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrTruncated marks a stream that ended mid-record: the final line had
// no terminating newline and does not decode as a complete job. A
// connection cut mid-batch surfaces as this error instead of a clean
// EOF, so the dropped tail is never silently swallowed.
var ErrTruncated = errors.New("stream truncated mid-record")

// maxLineBytes bounds one NDJSON job line. Job lines are small, but
// leave generous headroom for pathological inputs.
const maxLineBytes = 1 << 20

// LineReader splits a byte stream into NDJSON records, one physical
// line each, bounded by maxLineBytes so that a stream without newlines
// errors instead of filling memory. StreamDecoder reads through it, and
// so does the broker's logical-time ingest loop, which applies its
// fault rules to each raw line before DecodeRecord.
type LineReader struct {
	br   *bufio.Reader
	done bool
}

// NewLineReader wraps r in a bounded line reader.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next line with its line ending stripped. terminated
// reports whether the line ended in a newline; only the last line of a
// stream may not. Next returns io.EOF once the stream is exhausted.
//
// The line is a view into the reader's buffer and is valid only until
// the next call: a caller that keeps a line past that must copy it.
// Only a line that spans buffer refills is copied here.
func (lr *LineReader) Next() (line []byte, terminated bool, err error) {
	if lr.done {
		return nil, false, io.EOF
	}
	var long []byte
	for {
		frag, err := lr.br.ReadSlice('\n')
		line := frag
		if long != nil || errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, frag...)
			line = long
		}
		switch {
		case err == nil:
			return bytes.TrimRight(line, "\r\n"), true, nil
		case errors.Is(err, io.EOF):
			lr.done = true
			if len(line) == 0 {
				return nil, false, io.EOF
			}
			return line, false, nil
		case !errors.Is(err, bufio.ErrBufferFull):
			return nil, false, err
		case len(line) > maxLineBytes:
			return nil, false, fmt.Errorf("line exceeds %d bytes", maxLineBytes)
		}
	}
}

// DecodeRecord decodes one LineReader line with DecodeLine. A blank line
// yields a nil job and no error. A line that lost its newline and does
// not decode is a stream cut mid-record: the error wraps ErrTruncated,
// so the dropped tail is never mistaken for a clean end. A final
// complete record without a newline decodes normally.
func DecodeRecord(line []byte, terminated bool) (*QJob, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, nil
	}
	j, err := DecodeLine(line)
	if err != nil && !terminated {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return j, err
}

// StreamDecoder reads an open-ended workload as line-delimited JSON: one
// jobJSON object per line, the broker ingest format. It reuses the batch
// loader's schema and defaults, so a JSON-array workload converted to
// NDJSON decodes to the identical jobs — the property the serve-smoke
// byte-identity gate rests on. Blank lines are skipped. Decode errors
// carry the 1-based line number and, when SetSource was called, the
// ingest provenance, so an operator can attribute a poisoned line to
// the connection that delivered it.
type StreamDecoder struct {
	lr     *LineReader
	line   int
	ingest Ingest
}

// NewStreamDecoder wraps r in a line-delimited JSON job decoder.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{lr: NewLineReader(r)}
}

// SetSource stamps every subsequently decoded job with ingest
// provenance: the ingest path name, the peer address, and a
// broker-local connection (or request) sequence number. Provenance is
// server-side metadata, not part of the wire schema — a job line that
// tries to carry its own is rejected by DisallowUnknownFields.
func (d *StreamDecoder) SetSource(source, remote string, connID int64) {
	d.ingest = Ingest{Source: source, Remote: remote, ConnID: connID}
}

// where locates an error: the stream, with the line number for a
// decode (not read) error, plus the ingest provenance when set.
func (d *StreamDecoder) where(decode bool) string {
	w := "stream"
	if decode {
		w = fmt.Sprintf("stream line %d", d.line)
	}
	if d.ingest.Source == "" {
		return w
	}
	return fmt.Sprintf("%s %s (remote %s, conn %d)", d.ingest.Source, w, d.ingest.Remote, d.ingest.ConnID)
}

// Next decodes the next job. It returns io.EOF once the stream ends
// cleanly (at a line boundary, or after a final complete record with no
// trailing newline). A stream that ends mid-record instead yields an
// error wrapping ErrTruncated.
func (d *StreamDecoder) Next() (*QJob, error) {
	for {
		line, terminated, err := d.lr.Next()
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("job: reading %s: %w", d.where(false), err)
		}
		d.line++
		j, err := DecodeRecord(line, terminated)
		if err != nil {
			return nil, fmt.Errorf("job: %s: %w", d.where(true), err)
		}
		if j != nil {
			j.Ingest = d.ingest
			return j, nil
		}
	}
}

// DecodeLine decodes one NDJSON job line (the broker wire schema),
// applying the batch loader's defaults and validation. A line holds
// exactly one job object: anything but white space after it is an
// error, never a second job silently dropped. Ingest provenance is left
// zero; callers stamp it.
//
// The canonical line WriteNDJSON emits is read without reflection
// (decodeCanonical); any other line goes through encoding/json, with
// the same result and the same errors.
func DecodeLine(line []byte) (*QJob, error) {
	if f, ok := decodeCanonical(line); ok {
		return f.toJob()
	}
	return decodeJSON(line)
}

// decodeJSON is DecodeLine through encoding/json: the path for every
// line that is not canonical, and the reference the canonical decoder
// is fuzzed against.
func decodeJSON(line []byte) (*QJob, error) {
	var rj jobJSON
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rj); err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(line[dec.InputOffset():])) > 0 {
		return nil, fmt.Errorf("trailing content after the job object at byte %d", dec.InputOffset())
	}
	return rj.toJob()
}

// WriteNDJSON emits jobs in the stream decoder's line-delimited format.
func WriteNDJSON(w io.Writer, jobs []*QJob) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, j := range jobs {
		arr := j.ArrivalTime
		t2 := j.TwoQubitGates
		rj := jobJSON{
			ID:            j.ID,
			NumQubits:     j.NumQubits,
			Depth:         j.Depth,
			Shots:         j.Shots,
			ArrivalTime:   &arr,
			TwoQubitGates: &t2,
			Tenant:        j.Tenant,
		}
		if err := enc.Encode(rj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSON emits jobs as the batch loader's JSON-array format.
func WriteJSON(w io.Writer, jobs []*QJob) error {
	raw := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		arr := j.ArrivalTime
		t2 := j.TwoQubitGates
		raw[i] = jobJSON{
			ID:            j.ID,
			NumQubits:     j.NumQubits,
			Depth:         j.Depth,
			Shots:         j.Shots,
			ArrivalTime:   &arr,
			TwoQubitGates: &t2,
			Tenant:        j.Tenant,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(raw)
}

package job

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeRecord reads arbitrary bytes the way every ingest path does
// (logical stdin, real-time stdin and TCP, HTTP bodies): LineReader
// splits the stream and DecodeRecord decodes each line. No input may
// panic; a line never holds a newline; a decode error on an
// unterminated final line wraps ErrTruncated; every accepted job is
// valid and a fixed point of WriteNDJSON → DecodeRecord. The check is
// differential: wherever the canonical decoder accepts a line, the
// encoding/json reference must give a reflect.DeepEqual job or the same
// error text.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lr := NewLineReader(bytes.NewReader(data))
		for {
			line, terminated, err := lr.Next()
			if err != nil {
				return // io.EOF, or a line over the bound
			}
			if bytes.IndexByte(line, '\n') >= 0 {
				t.Fatalf("line holds a newline: %q", line)
			}
			checkCanonical(t, bytes.TrimSpace(line))
			j, err := DecodeRecord(line, terminated)
			if err != nil {
				if !terminated && !errors.Is(err, ErrTruncated) {
					t.Fatalf("unterminated line %q: error %v does not wrap ErrTruncated", line, err)
				}
				continue
			}
			if j == nil {
				if len(bytes.TrimSpace(line)) != 0 {
					t.Fatalf("non-blank line %q decoded to no job", line)
				}
				continue
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("accepted job %+v is invalid: %v", j, err)
			}
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, []*QJob{j}); err != nil {
				t.Fatal(err)
			}
			again, err := DecodeRecord(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), true)
			if err != nil {
				t.Fatalf("re-encoded job %q refused: %v", buf.Bytes(), err)
			}
			if !reflect.DeepEqual(j, again) {
				t.Fatalf("job changed across encode → decode:\n%+v\n%+v", j, again)
			}
		}
	})
}

// checkCanonical fails t unless decodeCanonical, where it accepts line,
// agrees with the encoding/json reference: the same job, or the same
// error.
func checkCanonical(t *testing.T, line []byte) {
	t.Helper()
	f, ok := decodeCanonical(line)
	if !ok {
		return
	}
	fast, ferr := f.toJob()
	ref, rerr := decodeJSON(line)
	switch {
	case ferr != nil || rerr != nil:
		if ferr == nil || rerr == nil || ferr.Error() != rerr.Error() {
			t.Fatalf("line %q: canonical error %v, reference error %v", line, ferr, rerr)
		}
	case !reflect.DeepEqual(fast, ref):
		t.Fatalf("line %q: canonical job %+v, reference job %+v", line, fast, ref)
	}
}

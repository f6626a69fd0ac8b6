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
// valid and a fixed point of WriteNDJSON → DecodeRecord.
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

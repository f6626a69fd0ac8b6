package job

import "strconv"

// decodeCanonical reads the canonical job line, the exact bytes
// WriteNDJSON emits, without reflection:
//
//	{"job_id":S,"num_qubits":N,"depth":N,"num_shots":N[,"arrival_time":F][,"two_qubit_gates":N][,"tenant":S]}
//
// The keys come in that order, with no white space and nothing after
// the closing brace. S is printable ASCII without '\' or '"'; N matches
// -?(0|[1-9][0-9]*) and fits in an int; F is a JSON number. ok is false
// for any other line, which DecodeLine then hands to encoding/json, so
// every rule and error text of that path still holds. On a line it
// accepts, the fields equal what encoding/json decodes from it:
// strings without escapes are copied byte for byte, and numbers go
// through the same strconv parsing.
func decodeCanonical(line []byte) (f jobFields, ok bool) {
	s := lineScanner{rest: line, ok: true}
	s.expect(`{"job_id":`)
	f.ID = s.str()
	s.expect(`,"num_qubits":`)
	f.NumQubits = s.int()
	s.expect(`,"depth":`)
	f.Depth = s.int()
	s.expect(`,"num_shots":`)
	f.Shots = s.int()
	if s.optional(`,"arrival_time":`) {
		f.ArrivalTime = s.float()
	}
	if s.optional(`,"two_qubit_gates":`) {
		f.TwoQubitGates, f.HasTwoQubitGates = s.int(), true
	}
	if s.optional(`,"tenant":`) {
		f.Tenant = s.str()
	}
	s.expect(`}`)
	return f, s.ok && len(s.rest) == 0
}

// lineScanner consumes a canonical line from the front. The first
// mismatch clears ok; later calls then consume nothing.
type lineScanner struct {
	rest []byte
	ok   bool
}

// optional consumes lit if the rest of the line starts with it.
func (s *lineScanner) optional(lit string) bool {
	if !s.ok || len(s.rest) < len(lit) || string(s.rest[:len(lit)]) != lit {
		return false
	}
	s.rest = s.rest[len(lit):]
	return true
}

// expect consumes lit, or fails the scan.
func (s *lineScanner) expect(lit string) {
	if !s.optional(lit) {
		s.ok = false
	}
}

// str consumes a quoted string of printable ASCII without escapes.
func (s *lineScanner) str() string {
	if !s.ok || len(s.rest) == 0 || s.rest[0] != '"' {
		s.ok = false
		return ""
	}
	for i := 1; i < len(s.rest); i++ {
		switch c := s.rest[i]; {
		case c == '"':
			v := string(s.rest[1:i])
			s.rest = s.rest[i+1:]
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// int consumes a JSON number and parses it as encoding/json does for
// an int field: a fraction, an exponent or a value past the int range
// fails the scan.
func (s *lineScanner) int() int {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	if err != nil {
		s.ok = false
	}
	return int(n)
}

// float consumes a JSON number and parses it as encoding/json does for
// a float64 field. An out-of-range value fails the scan.
func (s *lineScanner) float() float64 {
	v, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.ok = false
	}
	return v
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its bytes: nil, failing the scan, if none starts here.
func (s *lineScanner) number() []byte {
	if !s.ok {
		return nil
	}
	b := s.rest
	n := 0
	if n < len(b) && b[n] == '-' {
		n++
	}
	switch {
	case n < len(b) && b[n] == '0':
		n++
	case n < len(b) && '1' <= b[n] && b[n] <= '9':
		n = digits(b, n)
	default:
		n = -1
	}
	if n > 0 && n < len(b) && b[n] == '.' {
		n = digits1(b, n+1)
	}
	if n > 0 && n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		n = digits1(b, n)
	}
	if n < 0 {
		s.ok = false
		return nil
	}
	s.rest = b[n:]
	return b[:n]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// digits1 is digits for a run that must hold at least one digit: -1
// if b[i] is not one.
func digits1(b []byte, i int) int {
	if j := digits(b, i); j > i {
		return j
	}
	return -1
}

// Package faults is a deterministic, seed-driven fault injector. A
// FaultPlan (JSON, shipped in specs like drift config) compiles into an
// Injector whose per-rule RNGs are derived from the plan seed, so an
// identical plan produces the identical fault sequence on every run —
// chaos tests are replayable and CI can gate on the exact event log.
//
// Faults are consulted at "opportunities": each time a covered layer
// reaches a decision point (an ingest line or read, an HTTP request) it
// calls Decide, which counts the opportunity against every matching
// rule and reports which faults fire. The ordered event log
// (Events, OnEvent) is the determinism witness: two runs with the same
// plan over the same workload must produce byte-identical logs.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"
)

// Layer, op, and kind names recognized in fault rules.
const (
	// LayerIngest covers the broker's NDJSON job stream.
	LayerIngest = "ingest"
	// LayerHTTP covers the HTTP control plane.
	LayerHTTP = "http"

	// OpLine is one line of the broker's logical-time stdin stream;
	// real-time brokers refuse line rules.
	OpLine = "line"
	// OpRead is one ingest byte-stream read: logical-time stdin, and
	// real-time stdin and TCP connections.
	OpRead = "read"
	// OpRequest is one HTTP request.
	OpRequest = "request"

	// KindDelay stalls the HTTP request for DelayMS.
	KindDelay = "delay"
	// KindReset kills the HTTP connection with an injected reset.
	KindReset = "reset"
	// KindCrash stops the ingest loop at the line, as a process death
	// mid-stream would: Line reports it, and the broker exits at once.
	KindCrash = "crash"
	// KindGarble corrupts the line into invalid JSON.
	KindGarble = "garble"
	// KindCut truncates: a line loses its tail, a byte stream ends after
	// Bytes more bytes, an HTTP body dies after Bytes bytes.
	KindCut = "cut"
	// KindStall sleeps DelayMS before delivering (slow-loris input).
	KindStall = "stall"
	// KindError answers the HTTP request with an injected 503.
	KindError = "error"
	// KindSever makes the HTTP request body fail mid-read after Bytes.
	KindSever = "sever"
)

// validKinds maps layer → op → permitted kinds.
var validKinds = map[string]map[string][]string{
	LayerIngest: {
		OpLine: {KindCrash, KindGarble, KindCut, KindStall},
		OpRead: {KindCut, KindStall},
	},
	LayerHTTP: {
		OpRequest: {KindError, KindDelay, KindReset, KindSever},
	},
}

// Plan is a declarative fault schedule: a seed plus rules. It travels
// as JSON in spec files next to workloads and drift configs.
type Plan struct {
	// Seed derives every rule's RNG; the same seed replays the same
	// fault sequence.
	Seed int64 `json:"seed"`
	// Rules are consulted in order at each matching opportunity.
	Rules []Rule `json:"rules"`
}

// Rule arms one fault kind at one layer/op. The zero probability fires
// on every opportunity (after After, up to Max); a fractional P gates
// each opportunity on the rule's seeded RNG.
type Rule struct {
	// Layer is one of the Layer* constants.
	Layer string `json:"layer"`
	// Op is one of the Op* constants valid for the layer.
	Op string `json:"op"`
	// Kind is the fault to inject, valid for the layer/op pair.
	Kind string `json:"kind"`
	// P is the per-opportunity firing probability; 0 means always.
	P float64 `json:"p,omitempty"`
	// After skips the first After opportunities.
	After int `json:"after,omitempty"`
	// Max bounds total firings; 0 means unlimited.
	Max int `json:"max,omitempty"`
	// DelayMS is the injected latency for delay/stall kinds.
	DelayMS float64 `json:"delay_ms,omitempty"`
	// Bytes parameterizes cut/sever: how many further bytes survive.
	Bytes int64 `json:"bytes,omitempty"`
	// Targets restricts the rule to matching opportunity targets
	// ("METHOD /path" for HTTP; ingest opportunities have none). Empty
	// matches everything.
	Targets []string `json:"targets,omitempty"`
}

// validate checks the rule against the layer/op/kind matrix, and
// refuses a parameter the rule's kind never reads: a delay_ms on a cut
// would otherwise load and inject no delay.
func (r *Rule) validate(i int) error {
	ops, ok := validKinds[r.Layer]
	if !ok {
		return fmt.Errorf("faults: rule %d: unknown layer %q", i, r.Layer)
	}
	kinds, ok := ops[r.Op]
	if !ok {
		return fmt.Errorf("faults: rule %d: layer %q has no op %q", i, r.Layer, r.Op)
	}
	found := false
	for _, k := range kinds {
		if k == r.Kind {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("faults: rule %d: kind %q not valid for %s/%s", i, r.Kind, r.Layer, r.Op)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("faults: rule %d: probability %g outside [0,1]", i, r.P)
	}
	if r.After < 0 || r.Max < 0 {
		return fmt.Errorf("faults: rule %d: negative after/max", i)
	}
	if r.DelayMS < 0 {
		return fmt.Errorf("faults: rule %d: negative delay", i)
	}
	if r.DelayMS*float64(time.Millisecond) >= math.MaxInt64 {
		return fmt.Errorf("faults: rule %d (%s/%s/%s): delay_ms %g outside time.Duration's range", i, r.Layer, r.Op, r.Kind, r.DelayMS)
	}
	if r.Bytes < 0 {
		return fmt.Errorf("faults: rule %d: negative byte count", i)
	}
	if r.DelayMS != 0 && r.Kind != KindDelay && r.Kind != KindStall {
		return fmt.Errorf("faults: rule %d (%s/%s/%s): delay_ms applies only to delay and stall rules", i, r.Layer, r.Op, r.Kind)
	}
	if r.Bytes != 0 && r.Kind != KindCut && r.Kind != KindSever {
		return fmt.Errorf("faults: rule %d (%s/%s/%s): bytes applies only to cut and sever rules", i, r.Layer, r.Op, r.Kind)
	}
	return nil
}

// ParsePlan decodes a plan, rejecting unknown fields and trailing
// content so spec typos and a second pasted plan fail loudly instead of
// silently disarming a rule.
func ParsePlan(r io.Reader) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: decoding plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("faults: plan has trailing content after the JSON document")
	}
	for i := range p.Rules {
		if err := p.Rules[i].validate(i); err != nil {
			return nil, err
		}
		// An empty target list matches everything, as an absent one
		// does; keep one form so a parsed plan re-encodes to itself.
		if len(p.Rules[i].Targets) == 0 {
			p.Rules[i].Targets = nil
		}
	}
	return &p, nil
}

// LoadPlan reads a plan file. A parse error is prefixed with the path
// only: ParsePlan's errors already carry the package prefix.
func LoadPlan(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close() //lint:allow errlint close of a read-only plan file cannot lose data
	p, err := ParsePlan(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Event is one fired fault in the injector's ordered log.
type Event struct {
	// Seq is the 1-based global firing order.
	Seq int `json:"seq"`
	// Layer, Op, Kind identify the rule that fired.
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Kind  string `json:"kind"`
	// Target is the opportunity's target, when the layer has one.
	Target string `json:"target,omitempty"`
	// Opportunity is the rule's matching-opportunity count at firing.
	Opportunity int `json:"opportunity"`
}

// Injection is one fault Decide tells the caller to apply.
type Injection struct {
	// Kind is the fault kind to apply.
	Kind string
	// Delay is the injected latency for delay/stall kinds.
	Delay time.Duration
	// Bytes parameterizes cut/sever.
	Bytes int64
}

// ruleState is a rule plus its runtime counters and derived RNG.
type ruleState struct {
	Rule
	rng           *rand.Rand
	opportunities int
	fired         int
}

// Injector evaluates a compiled plan. It is safe for concurrent use;
// determinism of the event log requires that each rule's opportunity
// stream itself arrives in a deterministic order (single-threaded
// ingest, serialized HTTP requests).
type Injector struct {
	mu      sync.Mutex
	rules   []*ruleState
	seq     int
	events  []Event
	onEvent func(Event)
}

// NewInjector compiles a plan. Each rule gets its own RNG derived from
// the plan seed and the rule index, so reordering-independent rules
// draw independent, reproducible streams.
func NewInjector(p *Plan) (*Injector, error) {
	in := &Injector{}
	for i := range p.Rules {
		r := p.Rules[i]
		if err := r.validate(i); err != nil {
			return nil, err
		}
		seed := p.Seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15)
		in.rules = append(in.rules, &ruleState{Rule: r, rng: rand.New(rand.NewSource(seed))})
	}
	return in, nil
}

// SetOnEvent installs a callback invoked (under the injector lock) for
// every fired fault, in firing order. The serve loop streams these as
// JSONL so CI can diff fault sequences across runs.
func (in *Injector) SetOnEvent(fn func(Event)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onEvent = fn
}

// Events returns a copy of the ordered fired-fault log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Decide registers one opportunity at layer/op against every matching
// rule and returns the faults that fire, in rule order.
func (in *Injector) Decide(layer, op, target string) []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Injection
	for _, rs := range in.rules {
		if rs.Layer != layer || rs.Op != op || !rs.matches(target) {
			continue
		}
		rs.opportunities++
		if rs.opportunities <= rs.After {
			continue
		}
		if rs.Max > 0 && rs.fired >= rs.Max {
			continue
		}
		if rs.P > 0 && rs.P < 1 && rs.rng.Float64() >= rs.P {
			continue
		}
		rs.fired++
		in.seq++
		ev := Event{
			Seq: in.seq, Layer: layer, Op: op, Kind: rs.Kind,
			Target: target, Opportunity: rs.opportunities,
		}
		in.events = append(in.events, ev)
		if in.onEvent != nil {
			in.onEvent(ev)
		}
		out = append(out, Injection{
			Kind:  rs.Kind,
			Delay: time.Duration(rs.DelayMS * float64(time.Millisecond)),
			Bytes: rs.Bytes,
		})
	}
	return out
}

func (rs *ruleState) matches(target string) bool {
	if len(rs.Targets) == 0 {
		return true
	}
	for _, t := range rs.Targets {
		if t == target {
			return true
		}
	}
	return false
}

// Line applies ingest line rules to one raw stream line. Garble and
// cut return a modified copy (the caller's buffer is never mutated);
// stall sleeps; crash reports true, and the caller stops the run
// without submitting the line.
func (in *Injector) Line(line []byte) (out []byte, crash bool) {
	for _, f := range in.Decide(LayerIngest, OpLine, "") {
		switch f.Kind {
		case KindCrash:
			crash = true
		case KindStall:
			time.Sleep(f.Delay)
		case KindGarble:
			g := make([]byte, 0, len(line)+1)
			g = append(g, line[:len(line)/2]...)
			g = append(g, '{')
			line = g
		case KindCut:
			n := f.Bytes
			if n > int64(len(line)) {
				n = int64(len(line)) / 2
			}
			line = line[:n]
		}
	}
	return line, crash
}

// Reader wraps an ingest byte stream with the plan's ingest/read rules:
// stall delays reads, cut ends the stream early (possibly mid-record —
// exactly the truncation the stream decoder must detect).
func (in *Injector) Reader(r io.Reader) io.Reader {
	return &faultReader{in: in, r: r}
}

type faultReader struct {
	in  *Injector
	r   io.Reader
	cut bool
	// remaining is the byte allowance left after a cut fired.
	remaining int64
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if !fr.cut {
		for _, f := range fr.in.Decide(LayerIngest, OpRead, "") {
			switch f.Kind {
			case KindStall:
				time.Sleep(f.Delay)
			case KindCut:
				fr.cut = true
				fr.remaining = f.Bytes
			}
		}
	}
	if fr.cut {
		if fr.remaining <= 0 {
			return 0, io.EOF
		}
		if int64(len(p)) > fr.remaining {
			p = p[:fr.remaining]
		}
		n, err := fr.r.Read(p)
		fr.remaining -= int64(n)
		if err == nil && fr.remaining <= 0 {
			err = io.EOF
		}
		return n, err
	}
	return fr.r.Read(p)
}

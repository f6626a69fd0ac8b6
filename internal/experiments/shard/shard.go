// Package shard executes an experiment task matrix across worker
// daemons — loopback daemons spawned on this machine, or long-lived
// daemons on remote hosts. A Coordinator partitions the globally
// enumerated task list into deterministic contiguous shards, obtains
// one worker session per shard from a pluggable Transport, and speaks
// one length-prefixed JSON protocol with each worker daemon (Server):
//
//	coordinator → daemon  hello{version}, then an order{spec, indices,
//	                      labels} request
//	daemon → coordinator  hello{health}, then a stream of result frames
//	                      (one per finished task, in completion order)
//	                      interleaved with heartbeats, terminated by a
//	                      done frame — or an error frame if a task
//	                      fails deliberately
//
// Two transports ship. ProcessTransport spawns one daemon subprocess
// per shard attempt — typically the experiments binary re-invoked as
// `-serve 127.0.0.1:0` — reads its announce line, and dials it; the
// daemon dies with its session, and with its coordinator through the
// stdin lifeline. TCPTransport dials long-lived daemons (usually
// `experiments -serve` on each host) across a host list. Heartbeats
// make a wedged daemon detectable within HeartbeatTimeout on either
// transport; Probe exposes the handshake as a health check for
// `-doctor`. The wire protocol is specified in docs/operations.md.
//
// Workers stream results as they finish, so when a worker dies
// mid-shard the coordinator keeps the delivered rows and retries just
// the unfinished indices (bounded by Retries) — on a freshly spawned
// daemon, or failing over to the next host in the fleet. Rows from
// fleet hosts record their origin (records.RunSummary.Host/Attempt);
// rows from spawned daemons stay provenance-free. Deliberately
// reported task errors are not retried: the simulations are
// deterministic, so a failing task would fail again.
//
// The package is deliberately ignorant of simulations — the spec is an
// opaque JSON document the worker-side RunFunc interprets — mirroring
// how the in-process runner.Pool is ignorant of task internals. The
// per-shard manifests merge through records.MergeManifests, which
// restores global task order and rejects duplicate or missing rows.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/records"
)

// maxFrame bounds one protocol frame (64 MiB). A length prefix beyond
// it means a corrupt or misframed stream, not a plausible message.
const maxFrame = 64 << 20

// order is one shard assignment, shipped inside a reqOrder request: the
// opaque experiment spec plus the worker's assigned slice of the
// global task list.
// Indices are global positions in the coordinator's enumeration; Labels
// carries the matching task IDs so the worker can verify it enumerated
// the same task list before running anything.
type order struct {
	Spec    json.RawMessage `json:"spec,omitempty"`
	Indices []int           `json:"indices,omitempty"`
	Labels  []string        `json:"labels,omitempty"`
}

// reply is one worker→coordinator message.
type reply struct {
	// Type is msgResult, msgError or msgDone — or msgHello, msgPong or
	// msgHeartbeat.
	Type string `json:"type"`
	// Index is the global task index (msgResult only).
	Index int `json:"index"`
	// Summary is the finished task's manifest row (msgResult only).
	Summary *records.RunSummary `json:"summary,omitempty"`
	// Error is the worker's deliberate failure report (msgError only).
	Error string `json:"error,omitempty"`
	// Health is the daemon's self-description (msgHello and msgPong).
	Health *Health `json:"health,omitempty"`
}

const (
	msgResult = "result"
	msgError  = "error"
	msgDone   = "done"
)

// writeFrame sends one message: a 4-byte big-endian payload length
// followed by the JSON payload.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: encoding frame: %w", err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one message. A clean end of stream at a frame
// boundary returns io.EOF; a stream cut mid-frame returns
// io.ErrUnexpectedEOF — the coordinator treats both as a worker crash
// unless a done frame arrived first.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF at the boundary and io.ErrUnexpectedEOF inside the
		// header both propagate unchanged.
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("shard: frame length %d exceeds limit %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("shard: decoding frame: %w", err)
	}
	return nil
}

// Plan partitions n tasks into at most k contiguous shards whose sizes
// differ by no more than one, earlier shards taking the extra tasks.
// The partition is a pure function of (n, k), so a coordinator and any
// observer agree on shard boundaries without communication.
func Plan(n, k int) [][]int {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	shards := make([][]int, 0, k)
	next := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		idx := make([]int, size)
		for j := range idx {
			idx[j] = next
			next++
		}
		shards = append(shards, idx)
	}
	return shards
}

package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/records"
)

// DefaultRetries is the per-shard respawn budget after worker crashes
// when Coordinator.Retries is zero.
const DefaultRetries = 2

// Progress describes one coordinator event. Callbacks are serialized.
type Progress struct {
	// Shard is the shard index; Attempt the 0-based spawn attempt for
	// that shard (>0 means a respawn after a crash).
	Shard, Attempt int
	// Event is "spawn", "result", "retry" or "done".
	Event string
	// Index and Label identify the finished task ("result" events;
	// Index is -1 otherwise).
	Index int
	Label string
	// Err is the crash that triggered a "retry".
	Err error
	// Done counts results received across all shards; Total the run's
	// task count.
	Done, Total int
}

// Coordinator fans an enumerated task list out across worker daemons —
// spawned loopback daemons or a remote fleet, depending on the
// Transport — and reassembles their streamed results into one
// manifest.
type Coordinator struct {
	// Shards is the concurrent worker session count; <= 0 means 1.
	// Shards larger than the task count are clamped (see Plan).
	Shards int
	// Retries is the per-shard respawn budget after a worker crash:
	// 0 means DefaultRetries, negative disables retries. Each respawned
	// worker receives only the shard's unfinished indices — results the
	// dead worker streamed before crashing are kept.
	Retries int
	// Transport opens worker sessions. Required.
	Transport Transport
	// PerShardWorkers records each worker daemon's per-order pool size
	// in its shard manifest's Workers field (<= 1 means 1), so the
	// merged manifest's Workers sum reflects the run's true concurrent
	// simulation capacity. Pure provenance — the coordinator itself
	// never schedules within a shard.
	PerShardWorkers int
	// OnProgress, if set, receives coordinator events. Calls are
	// serialized; the callback must not block for long.
	OnProgress func(Progress)
}

// crashError marks a worker session that died before finishing its
// shard — the retryable failure class, unlike a task error the worker
// reported deliberately.
type crashError struct{ err error }

func (e *crashError) Error() string { return e.err.Error() }
func (e *crashError) Unwrap() error { return e.err }

// Run partitions the labeled task list with Plan, executes every shard
// on worker sessions from the Transport, and merges the per-shard
// manifests back into global task order via records.MergeManifests —
// which doubles as the integrity check that no task was lost or
// duplicated across crashes and retries. spec is the opaque experiment description every worker
// receives verbatim. The first shard failure cancels the others; as in
// runner.Pool, a real failure is never masked by the cancellation
// fallout it causes in sibling shards.
func (c *Coordinator) Run(ctx context.Context, label string, spec json.RawMessage, labels []string) (*records.RunManifest, error) {
	if c.Transport == nil {
		return nil, errors.New("shard: Coordinator.Transport is required")
	}
	if len(labels) == 0 {
		return &records.RunManifest{Label: label}, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	plan := Plan(len(labels), c.Shards)
	sink := &progressSink{fn: c.OnProgress, total: len(labels)}
	manifests := make([]*records.RunManifest, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for si := range plan {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			m, err := c.runShard(ctx, c.Transport, si, spec, labels, plan[si], sink)
			manifests[si], errs[si] = m, err
			if err != nil {
				cancel()
			}
		}(si)
	}
	wg.Wait()

	var cancelFallout error
	for si, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelFallout == nil {
				cancelFallout = fmt.Errorf("shard %d: %w", si, err)
			}
			continue
		}
		return nil, fmt.Errorf("shard %d: %w", si, err)
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if cancelFallout != nil {
		return nil, cancelFallout
	}
	merged, err := records.MergeManifests(label, labels, manifests...)
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// runShard drives one shard to completion, respawning crashed workers
// on the unfinished remainder until the retry budget runs out.
func (c *Coordinator) runShard(ctx context.Context, transport Transport, si int, spec json.RawMessage, labels []string, indices []int, sink *progressSink) (*records.RunManifest, error) {
	retries := c.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	m := &records.RunManifest{Label: fmt.Sprintf("shard%d", si), Workers: max(1, c.PerShardWorkers)}
	remaining := append([]int(nil), indices...)
	for attempt := 0; ; attempt++ {
		sink.report(Progress{Shard: si, Attempt: attempt, Event: "spawn", Index: -1})
		var err error
		remaining, err = c.runWorker(ctx, transport, si, attempt, spec, labels, remaining, m, sink)
		if err == nil {
			sink.report(Progress{Shard: si, Attempt: attempt, Event: "done", Index: -1})
			return m, nil
		}
		var crash *crashError
		if !errors.As(err, &crash) {
			return m, err
		}
		if ctx.Err() != nil {
			return m, ctx.Err()
		}
		if attempt >= retries {
			return m, fmt.Errorf("%d task(s) unfinished after %d worker attempt(s): %w", len(remaining), attempt+1, err)
		}
		sink.report(Progress{Shard: si, Attempt: attempt, Event: "retry", Index: -1, Err: err})
	}
}

// runWorker opens one worker session on the given indices, streams its
// results into m, and returns the indices still unfinished. A nil
// error means the worker sent done with nothing left over; a
// *crashError means the session died mid-shard and the remainder is
// retryable. A connect failure is terminal: transports fail over
// internally, so it means no worker is reachable at all.
func (c *Coordinator) runWorker(ctx context.Context, transport Transport, si, attempt int, spec json.RawMessage, labels []string, indices []int, m *records.RunManifest, sink *progressSink) ([]int, error) {
	lbls := make([]string, len(indices))
	assigned := make(map[int]bool, len(indices))
	for j, i := range indices {
		lbls[j] = labels[i]
		assigned[i] = true
	}
	sess, err := transport.connect(ctx, si, attempt)
	if err != nil {
		if ctx.Err() != nil {
			return indices, ctx.Err() // a sibling shard failed first
		}
		return indices, err
	}
	// The reaper guarantees the worker never outlives ctx even when the
	// transport did not wire cancellation itself (close is documented
	// safe to call twice and concurrently with recv).
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		//lint:allow detlint shutdown reaper: both arms end the same session, and results were already ordered by index
		select {
		case <-ctx.Done():
			//lint:allow errlint the reaper only unblocks recv; the order path reports the root-cause error
			_ = sess.close()
		case <-finished:
		}
	}()

	if err := sess.sendOrder(order{Spec: spec, Indices: indices, Labels: lbls}); err != nil {
		closeErr := sess.close()
		if ctx.Err() != nil {
			return indices, ctx.Err()
		}
		// A worker that dies before reading its order (instant crash,
		// connection reset) is the same retryable class as one dying
		// mid-shard.
		return indices, &crashError{fmt.Errorf("worker %sdied taking its order (send: %v, exit: %v)", peerPrefix(sess), err, closeErr)}
	}

	got := make(map[int]bool, len(indices))
	var done bool
	var workerErr, streamErr error
	for !done && workerErr == nil {
		var rep reply
		if err := sess.recv(&rep); err != nil {
			streamErr = err
			break
		}
		switch rep.Type {
		case msgResult:
			switch {
			case !assigned[rep.Index]:
				workerErr = fmt.Errorf("worker reported unassigned task index %d", rep.Index)
			case got[rep.Index]:
				workerErr = fmt.Errorf("worker reported task index %d twice", rep.Index)
			case rep.Summary == nil:
				workerErr = fmt.Errorf("worker result for index %d carries no summary", rep.Index)
			default:
				got[rep.Index] = true
				sum := *rep.Summary
				// Provenance, recorded only for transports with a real
				// host identity: which host delivered the row and on
				// which spawn attempt (>0 means the task was requeued
				// after a crash). Manifests from spawned loopback daemons
				// stay byte-identical to in-process ones by carrying
				// neither field.
				if host := sess.peer(); host != "" {
					sum.Host = host
					sum.Attempt = attempt
				}
				m.Runs = append(m.Runs, sum)
				sink.report(Progress{
					Shard: si, Attempt: attempt, Event: "result",
					Index: rep.Index, Label: sum.ID, Done: 1,
				})
			}
		case msgError:
			workerErr = errors.New(rep.Error)
		case msgDone:
			done = true
		default:
			workerErr = fmt.Errorf("worker sent unknown frame type %q", rep.Type)
		}
	}
	// Tear the session down unconditionally: a worker that keeps
	// writing after done/error must not wedge the shard.
	closeErr := sess.close()

	remaining := indices[:0]
	for _, i := range indices {
		if !got[i] {
			remaining = append(remaining, i)
		}
	}
	switch {
	case workerErr != nil:
		return remaining, workerErr
	case done && len(remaining) > 0:
		return remaining, fmt.Errorf("worker reported done with %d assigned task(s) missing", len(remaining))
	case done:
		return nil, nil
	default:
		if ctx.Err() != nil {
			return remaining, ctx.Err()
		}
		return remaining, &crashError{fmt.Errorf("worker %sdied mid-shard (stream: %v, exit: %v)", peerPrefix(sess), streamErr, closeErr)}
	}
}

// peerPrefix renders a session's host identity for error messages —
// "10.0.0.2:7070 " or "" for anonymous spawned daemons.
func peerPrefix(sess session) string {
	if p := sess.peer(); p != "" {
		return p + " "
	}
	return ""
}

// progressSink serializes OnProgress callbacks and maintains the
// cross-shard completion count.
type progressSink struct {
	mu    sync.Mutex
	fn    func(Progress)
	done  int
	total int
}

func (s *progressSink) report(p Progress) {
	if s.fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done += p.Done
	p.Done = s.done
	p.Total = s.total
	s.fn(p)
}

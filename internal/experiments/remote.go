package experiments

import (
	"context"
	"errors"
	"time"

	"repro/internal/experiments/shard"
	"repro/internal/records"
	"repro/internal/retry"
)

// RemoteOptions configures the Remote executor — the hosts-level
// backend that fans a run out across long-lived worker daemons over
// TCP. The knobs shared with every executor (Workers, Retries,
// OnProgress) live in the embedded ExecOptions; Workers sizes each
// daemon's per-order pool exactly as it does for Sharded's spawned
// daemons.
type RemoteOptions struct {
	ExecOptions
	// Hosts lists worker daemon addresses as host:port (usually
	// `experiments -serve` on each machine). Required.
	Hosts []string
	// Shards is the concurrent order count; <= 0 means one shard per
	// host. More shards than hosts multiplexes orders onto daemons;
	// fewer leaves hosts idle until a crash fails work over to them.
	Shards int
	// DialTimeout bounds connect+handshake per host; 0 means
	// shard.DefaultDialTimeout.
	DialTimeout time.Duration
	// DialAttempts is the total session-establishment tries per shard
	// attempt under the shared retry policy (each try already sweeps
	// every host). Values <= 1 keep the legacy fail-fast behavior in
	// which an all-hosts-down dial is terminal.
	DialAttempts int
	// OnEvent, if set, receives raw coordinator lifecycle events
	// (spawn/result/retry/done) beyond the per-task OnProgress stream.
	OnEvent func(shard.Progress)
}

// Remote executes a task matrix across worker daemons on a host fleet,
// implementing Executor on top of the same coordinator machinery as
// Sharded — only the transport differs, so crash requeue, bounded
// retries and the merge integrity check carry over unchanged. A daemon
// that dies mid-order has its unfinished tasks requeued onto a
// surviving host, and each manifest row records which host produced it
// (records.RunSummary.Host/Attempt).
//
// For fixed seeds the manifest is bit-identical to every other
// executor's (wall time, worker accounting and provenance aside):
// daemons rebuild tasks from the same serialized ShardSpec seeds as
// the daemons Sharded spawns.
type Remote struct {
	Options RemoteOptions
}

// Name implements Executor.
func (Remote) Name() string { return "remote" }

// Execute implements Executor.
func (e Remote) Execute(ctx context.Context, cs *CaseStudy, m TaskMatrix) (*records.RunManifest, error) {
	opt := e.Options
	if len(opt.Hosts) == 0 {
		return nil, errors.New("experiments: remote execution needs at least one worker daemon host")
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = len(opt.Hosts)
	}
	var transport shard.Transport = &shard.TCPTransport{
		Hosts:       opt.Hosts,
		DialTimeout: opt.DialTimeout,
	}
	if opt.DialAttempts > 1 {
		transport = &shard.RetryTransport{
			Inner: transport,
			Policy: retry.Policy{
				MaxAttempts: opt.DialAttempts,
				BaseDelay:   200 * time.Millisecond,
				MaxDelay:    2 * time.Second,
				Seed:        1,
			},
		}
	}
	return cs.runOnDaemons(ctx, m, opt.ExecOptions, shards, transport, opt.OnEvent)
}

package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Transport abstracts how a Coordinator reaches the worker daemon that
// executes one shard attempt: spawning a loopback daemon on this
// machine (ProcessTransport, the -shards path) or dialing a long-lived
// daemon on a host fleet (TCPTransport, the -hosts path). Both speak
// the one wire protocol Server implements; the coordinator's
// partitioning, streaming, crash-requeue and merge logic is
// transport-agnostic.
//
// A connect error is terminal for the run — transports fail over
// internally (TCPTransport tries every configured host), so a failure
// here means no worker is reachable at all and retrying the shard
// could not help. Failures *after* a session is established are the
// coordinator's crash class and trigger the requeue machinery.
//
// The protocol types are internal to this package, so the interface is
// satisfiable only from here; external execution backends plug in at
// the experiments.Executor seam instead.
type Transport interface {
	// connect opens a fresh worker session for the given shard attempt.
	connect(ctx context.Context, shard, attempt int) (session, error)
}

// session is one worker conversation: ship the order, stream replies,
// tear down. close must be safe to call more than once and
// concurrently with a blocked recv (it is the coordinator's cancel
// path).
type session interface {
	// sendOrder ships the shard assignment.
	sendOrder(o order) error
	// recv reads the next protocol reply, honoring heartbeat liveness.
	recv(rep *reply) error
	// peer names the worker host for provenance — "" when the transport
	// has no meaningful host identity (spawned loopback daemons), in
	// which case no provenance is recorded and manifests stay
	// byte-identical to in-process runs.
	peer() string
	// close tears the session down (closes the connection, and kills
	// a spawned daemon) and returns the worker's exit status where one
	// exists.
	close() error
}

// announceFormat is the line a worker daemon prints on stdout once it
// listens (Server.ListenAndServe writes it, ProcessTransport parses
// it): the bound address first, so `-serve 127.0.0.1:0` callers learn
// the picked port.
const announceFormat = "listening on %s (protocol v%d, capacity %d)\n"

// ParseAnnounce extracts the listen address from a daemon's announce
// line.
func ParseAnnounce(line string) (addr string, err error) {
	var version, capacity int
	if _, err := fmt.Sscanf(line, announceFormat, &addr, &version, &capacity); err != nil {
		return "", fmt.Errorf("shard: malformed daemon announce line %q: %w", line, err)
	}
	return addr, nil
}

// ProcessTransport runs each shard attempt on a fresh worker daemon
// subprocess listening on loopback — the transport behind the Sharded
// executor. The daemon announces its address on stdout and is dialed
// like any fleet host, but it lives exactly as long as its session:
// close kills and reaps it, and its stdin — a pipe the transport holds
// open and never writes — is its lifeline, so a coordinator that dies
// takes its daemons with it.
type ProcessTransport struct {
	// Command returns a fresh, unstarted worker daemon process that
	// serves on an ephemeral loopback port (e.g. the experiments binary
	// with -serve 127.0.0.1:0). Required.
	Command func(ctx context.Context) *exec.Cmd
	// Stderr receives every worker's stderr; nil means os.Stderr.
	Stderr io.Writer
}

// connect implements Transport.
func (t *ProcessTransport) connect(ctx context.Context, shard, attempt int) (session, error) {
	if t.Command == nil {
		return nil, fmt.Errorf("shard: ProcessTransport.Command is required")
	}
	cmd := t.Command(ctx)
	cmd.Stderr = t.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	// The stdin pipe is the daemon's lifeline: nothing is ever written
	// to it, and the cmd keeps the write end open until Wait, so the
	// daemon sees EOF exactly when this process lets go of it.
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning worker: %w", err)
	}
	s := &processSession{cmd: cmd}
	// A daemon that never announces (wedged before listening) is killed
	// once the dial budget runs out, which ends the read below.
	timer := time.AfterFunc(DefaultDialTimeout, func() {
		//lint:allow errlint Kill on an already-exited worker fails by design; the announce read reports the failure
		_ = cmd.Process.Kill()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	timer.Stop()
	addr, perr := ParseAnnounce(line)
	if err != nil || perr != nil {
		return nil, fmt.Errorf("worker daemon never announced its address (read: %v, exit: %v)", err, s.close())
	}
	if s.tcpSession, _, err = dialWorker(ctx, addr, DefaultDialTimeout, DefaultHeartbeatTimeout); err != nil {
		return nil, fmt.Errorf("dialing worker daemon at %s: %w (exit: %v)", addr, err, s.close())
	}
	return s, nil
}

// processSession is a TCP session with the spawned daemon behind it.
type processSession struct {
	*tcpSession
	cmd *exec.Cmd

	once    sync.Once
	waitErr error
}

func (s *processSession) peer() string { return "" }

// close hangs up, then kills the daemon unconditionally — already-exited
// processes ignore it — and reaps it. The first caller wins; later
// callers get the same exit status.
func (s *processSession) close() error {
	s.once.Do(func() {
		if s.tcpSession != nil {
			//lint:allow errlint the daemon's exit status below is the report; a hang-up error on a dying daemon carries no signal
			_ = s.tcpSession.close()
		}
		//lint:allow errlint Kill on an already-exited worker fails by design; Wait below reports the real exit status
		_ = s.cmd.Process.Kill()
		s.waitErr = s.cmd.Wait()
	})
	return s.waitErr
}

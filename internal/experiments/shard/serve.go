package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/records"
)

// RunFunc is the worker-side task executor. It receives the opaque
// experiment spec from the order frame, the worker's assigned global
// task indices with their matching labels, and an emit function that
// streams one finished task's manifest row back to the coordinator.
// emit must be called exactly once per completed index; calls may come
// from any goroutine (the Server serializes the writes). Returning an
// error reports a deliberate task failure — the coordinator fails the
// whole run rather than retrying, because the simulations are
// deterministic.
type RunFunc func(ctx context.Context, spec []byte, indices []int, labels []string, emit func(index int, s records.RunSummary) error) error

// DefaultHeartbeatInterval is how often a Server emits heartbeat frames
// while an order runs. Coordinators budget DefaultHeartbeatTimeout of
// silence, so several heartbeats may be lost before a daemon is
// declared wedged.
const DefaultHeartbeatInterval = 2 * time.Second

// Server is the long-lived worker daemon behind `experiments -serve`:
// it accepts coordinator connections over TCP, answers health pings,
// and executes shard orders through its RunFunc — streaming result
// frames as tasks finish, interleaved with heartbeats so a coordinator
// can tell a long simulation from a wedged host. It is the only
// worker-side implementation of the protocol: fleet hosts and the
// loopback daemons ProcessTransport spawns both run it.
//
// The daemon outlives its coordinators: a dropped connection cancels
// only that connection's in-flight order (there is no point simulating
// for a listener that is gone) and the accept loop keeps serving. Only
// canceling the Serve context shuts the daemon down.
type Server struct {
	// Run executes one order's tasks. Required.
	Run RunFunc
	// Capacity is the advertised per-order worker-pool size reported in
	// Health; it is provenance for -doctor, not a limit the server
	// enforces (RunFunc owns its own concurrency).
	Capacity int
	// HeartbeatInterval overrides DefaultHeartbeatInterval when > 0.
	HeartbeatInterval time.Duration
	// Logf, when set, receives one line per connection-level event
	// (connect, order, disconnect, refusal). Nil means silent.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	start  time.Time
	active int
	served int64
}

// ListenAndServe is a worker daemon process's main loop: it listens on
// addr, announces the bound address on stdout in the one line
// ProcessTransport parses (ParseAnnounce), and serves until ctx is
// canceled. When stdin is a pipe, it is the daemon's lifeline: EOF on
// it — the spawning coordinator exited, however it died — shuts the
// daemon down too. Stdin from a terminal, /dev/null or a file leaves a
// standalone daemon serving until ctx ends.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeNamedPipe != 0 {
		// The reader blocks until the pipe closes or the process exits;
		// a ctx shutdown leaves it parked, which costs nothing in a
		// daemon process about to exit.
		go func() {
			//lint:allow errlint a read error ends the lifeline exactly like EOF; both mean the parent let go of the pipe
			_, _ = io.Copy(io.Discard, os.Stdin)
			s.logf("stdin closed: shutting down")
			cancel()
		}()
	}
	if _, err := fmt.Fprintf(os.Stdout, announceFormat, ln.Addr(), ProtocolVersion, max(1, s.Capacity)); err != nil {
		ln.Close() //lint:allow errlint the announce failure is the error to report; close is failure-path cleanup
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve accepts and handles coordinator connections on ln until ctx is
// canceled, then closes the listener, disconnects every client and
// returns nil. Errors from individual connections never stop the
// daemon; only a listener failure surfaces.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if s.Run == nil {
		return errors.New("shard: Server.Run is required")
	}
	s.mu.Lock()
	if s.start.IsZero() {
		//lint:allow detlint daemon uptime is operational wall-clock metadata, not simulation state
		s.start = time.Now()
	}
	s.mu.Unlock()
	//lint:allow errlint closing the listener is how cancellation unblocks Accept; the error has no consumer
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return fmt.Errorf("shard: accepting connection: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(ctx, conn)
		}()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// health snapshots the daemon's self-description under the counter
// lock.
func (s *Server) health() *Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Health{
		Version:  ProtocolVersion,
		Capacity: max(1, s.Capacity),
		Active:   s.active,
		Served:   s.served,
		UptimeS:  time.Since(s.start).Seconds(), //lint:allow detlint uptime reporting is operational wall-clock metadata, not simulation state
	}
}

// handle speaks the daemon side of the protocol on one connection:
// hello handshake with version check, then a request loop of pings and
// orders until the coordinator hangs up.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	defer conn.Close() //lint:allow errlint protocol errors travel in-band; close errors on a request socket carry no data
	// Unblock reads when the daemon shuts down mid-connection.
	//lint:allow errlint the shutdown close only unblocks reads; the handler's own defer reports nothing either way
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	peer := conn.RemoteAddr().String()

	// The handshake runs under a deadline: a connection that never says
	// hello (port scanner, half-open socket) must not pin a goroutine.
	//lint:allow detlint network I/O deadlines are wall-clock by nature; they bound a hung peer, not simulated time
	if err := conn.SetReadDeadline(time.Now().Add(DefaultDialTimeout)); err != nil {
		return
	}
	var hello request
	if err := readFrame(conn, &hello); err != nil {
		s.logf("%s: handshake failed: %v", peer, err)
		return
	}
	if hello.Type != reqHello {
		s.logf("%s: refused: first frame %q, want hello", peer, hello.Type)
		//lint:allow errlint best-effort refusal frame to a peer being dropped; the refusal itself is already logged
		_ = writeFrame(conn, reply{Type: msgError, Error: fmt.Sprintf("expected hello, got %q", hello.Type)})
		return
	}
	if hello.Version != ProtocolVersion {
		s.logf("%s: refused: protocol v%d, daemon speaks v%d", peer, hello.Version, ProtocolVersion)
		//lint:allow errlint best-effort refusal frame to a peer being dropped; the refusal itself is already logged
		_ = writeFrame(conn, reply{Type: msgError, Error: fmt.Sprintf("protocol version mismatch: coordinator speaks v%d, daemon v%d", hello.Version, ProtocolVersion)})
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	if err := writeFrame(conn, reply{Type: msgHello, Health: s.health()}); err != nil {
		s.logf("%s: handshake failed: %v", peer, err)
		return
	}
	s.logf("%s: connected (protocol v%d)", peer, hello.Version)

	for {
		var req request
		if err := readFrame(conn, &req); err != nil {
			if err != io.EOF && ctx.Err() == nil {
				s.logf("%s: disconnected: %v", peer, err)
			} else {
				s.logf("%s: disconnected", peer)
			}
			return
		}
		switch req.Type {
		case reqPing:
			if err := writeFrame(conn, reply{Type: msgPong, Health: s.health()}); err != nil {
				s.logf("%s: disconnected: %v", peer, err)
				return
			}
		case reqOrder:
			if err := s.runOrder(ctx, conn, peer, req.order); err != nil {
				s.logf("%s: order failed: %v", peer, err)
				return
			}
			s.logf("%s: order done (%d tasks)", peer, len(req.Indices))
		default:
			s.logf("%s: refused frame type %q", peer, req.Type)
			//lint:allow errlint best-effort refusal frame to a peer being dropped; the refusal itself is already logged
			_ = writeFrame(conn, reply{Type: msgError, Error: fmt.Sprintf("unknown request type %q", req.Type)})
			return
		}
	}
}

// runOrder executes one order, streaming results and heartbeats. A
// write failure means the coordinator is gone; the in-flight tasks are
// canceled (their results have nowhere to go — the coordinator will
// requeue them elsewhere) and the connection is abandoned, but the
// daemon itself keeps serving.
func (s *Server) runOrder(ctx context.Context, conn net.Conn, peer string, o order) error {
	if len(o.Labels) != len(o.Indices) {
		err := fmt.Errorf("order has %d labels for %d indices", len(o.Labels), len(o.Indices))
		//lint:allow errlint best-effort rejection frame; the malformed order is reported through the returned error
		_ = writeFrame(conn, reply{Type: msgError, Error: err.Error()})
		return err
	}
	hb := s.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	// octx cancels the order's simulations the moment a write fails.
	octx, cancel := context.WithCancel(ctx)
	defer cancel()

	// All frames — results from RunFunc's goroutines, heartbeats from
	// the ticker — go through write: one mutex so frames never
	// interleave, and a deadline per frame so a coordinator that stops
	// reading cannot wedge the daemon.
	var wmu sync.Mutex
	write := func(rep reply) error {
		wmu.Lock()
		defer wmu.Unlock()
		//lint:allow detlint network I/O deadlines are wall-clock by nature; they bound a hung peer, not simulated time
		if err := conn.SetWriteDeadline(time.Now().Add(DefaultHeartbeatTimeout)); err != nil {
			return err
		}
		if err := writeFrame(conn, rep); err != nil {
			cancel()
			return err
		}
		return conn.SetWriteDeadline(time.Time{})
	}

	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			//lint:allow detlint heartbeats are wall-clock liveness plumbing; whichever arm fires, no simulation state is touched
			select {
			case <-hbDone:
				return
			case <-octx.Done():
				return
			case <-t.C:
				if write(reply{Type: msgHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	emit := func(index int, sum records.RunSummary) error {
		if err := write(reply{Type: msgResult, Index: index, Summary: &sum}); err != nil {
			return err
		}
		s.mu.Lock()
		s.served++
		s.mu.Unlock()
		return nil
	}
	if err := s.Run(octx, o.Spec, o.Indices, o.Labels, emit); err != nil {
		// Best-effort: the coordinator learns the root cause from this
		// frame if the connection still works.
		//lint:allow errlint best-effort root-cause frame; a dead connection already surfaces as a coordinator-side failure
		_ = write(reply{Type: msgError, Error: err.Error()})
		return err
	}
	return write(reply{Type: msgDone})
}

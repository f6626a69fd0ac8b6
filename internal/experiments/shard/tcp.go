package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// ProtocolVersion is the fleet wire-protocol revision. Coordinator and
// daemon exchange versions in the hello handshake and refuse to talk
// across a mismatch — the protocol carries opaque experiment specs, so
// a silent skew would surface as confusing task failures instead of
// one clear error. Bump it on any incompatible framing or message
// change.
const ProtocolVersion = 2

// Defaults for the TCP transport's two liveness knobs.
const (
	// DefaultDialTimeout bounds connecting to a daemon and completing
	// the hello handshake.
	DefaultDialTimeout = 5 * time.Second
	// DefaultHeartbeatTimeout is how long the coordinator waits for any
	// frame — result or heartbeat — before declaring a daemon wedged.
	// It must comfortably exceed DefaultHeartbeatInterval.
	DefaultHeartbeatTimeout = 10 * time.Second
)

// request is one coordinator→daemon message. Every client frame is
// typed so the daemon can multiplex handshakes, health probes and work
// on one protocol.
type request struct {
	// Type is reqHello, reqPing or reqOrder.
	Type string `json:"type"`
	// Version is the client's ProtocolVersion (hello only).
	Version int `json:"version,omitempty"`
	// order is the assignment (order only), its fields inlined.
	order
}

const (
	reqHello = "hello"
	reqPing  = "ping"
	reqOrder = "order"
)

// Daemon→coordinator frame types beyond the order replies
// (result/error/done).
const (
	// msgHello acknowledges the handshake and carries a Health snapshot.
	msgHello = "hello"
	// msgPong answers a ping with a fresh Health snapshot.
	msgPong = "pong"
	// msgHeartbeat is sent periodically while an order runs so the
	// coordinator can tell a slow simulation from a wedged daemon. It
	// carries no payload and is invisible above the session layer.
	msgHeartbeat = "heartbeat"
)

// Health is a daemon's self-description, returned in hello and pong
// frames and surfaced by Probe (the -doctor subcommand).
type Health struct {
	// Version is the daemon's ProtocolVersion.
	Version int `json:"version"`
	// Capacity is the daemon's advertised per-order worker-pool size.
	Capacity int `json:"capacity"`
	// Active is the number of orders executing right now.
	Active int `json:"active"`
	// Served counts task results delivered since the daemon started.
	Served int64 `json:"served"`
	// UptimeS is seconds since the daemon started serving.
	UptimeS float64 `json:"uptime_s"`
}

// TCPTransport reaches long-lived worker daemons (Server, usually
// `experiments -serve`) over TCP — the transport behind the Remote
// executor. Shard attempt k tries Hosts[(shard+attempt+k)%len] first
// and fails over through the rest of the list, so a crashed daemon's
// requeued work lands on a surviving host and repeated retries do not
// hammer one machine. connect fails only when no configured host
// accepts a session.
type TCPTransport struct {
	// Hosts lists daemon addresses as host:port. Required.
	Hosts []string
	// DialTimeout bounds connect+handshake per host; 0 means
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// HeartbeatTimeout is the silence budget per receive; 0 means
	// DefaultHeartbeatTimeout. Daemons heartbeat every
	// DefaultHeartbeatInterval while working, so expiry means a wedged
	// or unreachable daemon, not a slow simulation.
	HeartbeatTimeout time.Duration
}

// connect implements Transport, failing over through the host list.
func (t *TCPTransport) connect(ctx context.Context, shard, attempt int) (session, error) {
	if len(t.Hosts) == 0 {
		return nil, errors.New("shard: TCPTransport needs at least one host")
	}
	dialTO := t.DialTimeout
	if dialTO <= 0 {
		dialTO = DefaultDialTimeout
	}
	hbTO := t.HeartbeatTimeout
	if hbTO <= 0 {
		hbTO = DefaultHeartbeatTimeout
	}
	var fails []string
	for k := range t.Hosts {
		host := t.Hosts[(shard+attempt+k)%len(t.Hosts)]
		sess, _, err := dialWorker(ctx, host, dialTO, hbTO)
		if err == nil {
			return sess, nil
		}
		fails = append(fails, fmt.Sprintf("%s: %v", host, err))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("shard: no worker daemon reachable: %s", strings.Join(fails, "; "))
}

// dialWorker opens one daemon session: TCP connect, then the hello
// handshake under the same deadline — a daemon whose kernel accepted
// the connection but whose process is wedged (stopped, hung) must fail
// the dial, not hang it. Returns the daemon's hello Health snapshot
// alongside the session (Probe wants it; connect discards it).
func dialWorker(ctx context.Context, host string, dialTO, hbTO time.Duration) (*tcpSession, *Health, error) {
	d := net.Dialer{Timeout: dialTO}
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, nil, err
	}
	//lint:allow detlint network I/O deadlines are wall-clock by nature; they bound a hung peer, not simulated time
	if err := conn.SetDeadline(time.Now().Add(dialTO)); err != nil {
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, err
	}
	if err := writeFrame(conn, request{Type: reqHello, Version: ProtocolVersion}); err != nil {
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	var rep reply
	if err := readFrame(conn, &rep); err != nil {
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	switch {
	case rep.Type == msgError:
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, fmt.Errorf("daemon refused session: %s", rep.Error)
	case rep.Type != msgHello || rep.Health == nil:
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, fmt.Errorf("handshake: daemon sent %q frame, want hello", rep.Type)
	case rep.Health.Version != ProtocolVersion:
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, fmt.Errorf("protocol version mismatch: daemon speaks v%d, this binary v%d", rep.Health.Version, ProtocolVersion)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close() //lint:allow errlint the handshake error is the one to report; close is failure-path cleanup
		return nil, nil, err
	}
	return &tcpSession{conn: conn, host: host, hbTimeout: hbTO}, rep.Health, nil
}

// tcpSession is one coordinator-side daemon conversation.
type tcpSession struct {
	conn      net.Conn
	host      string
	hbTimeout time.Duration

	once     sync.Once
	closeErr error
}

func (s *tcpSession) sendOrder(o order) error {
	//lint:allow detlint network I/O deadlines are wall-clock by nature; they bound a hung peer, not simulated time
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.hbTimeout)); err != nil {
		return err
	}
	err := writeFrame(s.conn, request{Type: reqOrder, order: o})
	if err != nil {
		return err
	}
	return s.conn.SetWriteDeadline(time.Time{})
}

// recv reads the next substantive reply, silently consuming heartbeat
// frames. Each read is bounded by the heartbeat timeout: a working
// daemon always produces *something* within one interval, so expiry
// means the daemon is wedged and the shard should requeue elsewhere.
func (s *tcpSession) recv(rep *reply) error {
	for {
		//lint:allow detlint network I/O deadlines are wall-clock by nature; they bound a hung peer, not simulated time
		if err := s.conn.SetReadDeadline(time.Now().Add(s.hbTimeout)); err != nil {
			return err
		}
		// Zero the destination: JSON leaves absent fields untouched, and
		// rep still carries the previous frame.
		*rep = reply{}
		if err := readFrame(s.conn, rep); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return fmt.Errorf("daemon sent no frame or heartbeat within %v: %w", s.hbTimeout, err)
			}
			return err
		}
		if rep.Type != msgHeartbeat {
			return nil
		}
	}
}

func (s *tcpSession) peer() string { return s.host }

func (s *tcpSession) close() error {
	s.once.Do(func() { s.closeErr = s.conn.Close() })
	return s.closeErr
}

// Probe checks one daemon's health for the -doctor subcommand: full
// dial + handshake (so it exercises exactly what a real run would),
// returning the daemon's self-reported Health and the observed
// handshake round-trip time. timeout <= 0 means DefaultDialTimeout.
func Probe(ctx context.Context, host string, timeout time.Duration) (*ProbeInfo, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	//lint:allow detlint probe round-trip time is operational wall-clock metadata, not simulation state
	start := time.Now()
	sess, health, err := dialWorker(ctx, host, timeout, timeout)
	if err != nil {
		return nil, err
	}
	rtt := time.Since(start)
	//lint:allow errlint the probe succeeded; hang-up errors on a drained handshake socket carry no signal
	_ = sess.close()
	return &ProbeInfo{Host: host, Health: *health, RTT: rtt}, nil
}

// ProbeInfo is one daemon's doctor report.
type ProbeInfo struct {
	// Host is the probed address.
	Host string
	// Health is the daemon's hello snapshot.
	Health
	// RTT is the observed dial+handshake round trip.
	RTT time.Duration
}

package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/records"
)

// startTestServer runs srv on an ephemeral localhost listener for the
// duration of the test and returns its address plus a kill switch
// (idempotent; also invoked at cleanup) that stops the daemon and
// waits for Serve to return.
func startTestServer(t *testing.T, srv *Server) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v on shutdown, want nil", err)
			}
		})
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// deadAddr returns a localhost address that was just proven free —
// connecting to it refuses.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPMatchesProcessTransport is the transport-equivalence gate at
// the shard layer: the same spec over two fleet daemons produces
// exactly the rows a run on spawned loopback daemons produces, plus
// provenance — and nothing else may differ.
func TestTCPMatchesProcessTransport(t *testing.T) {
	addr1, _ := startTestServer(t, &Server{Run: scriptedRun})
	addr2, _ := startTestServer(t, &Server{Run: scriptedRun})
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 2})
	labels := taskLabels(9)

	remote, err := (&Coordinator{
		Shards:    2,
		Transport: &TCPTransport{Hosts: []string{addr1, addr2}},
	}).Run(context.Background(), "eq", spec, labels)
	if err != nil {
		t.Fatal(err)
	}
	local, err := (&Coordinator{Shards: 2, Transport: procTransport(t)}).Run(context.Background(), "eq", spec, labels)
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range remote.Runs {
		if r.Host != addr1 && r.Host != addr2 {
			t.Fatalf("row %d host = %q, want one of the daemon addresses", i, r.Host)
		}
		if r.Attempt != 0 {
			t.Fatalf("row %d attempt = %d on a crash-free run, want 0", i, r.Attempt)
		}
		remote.Runs[i].Host, remote.Runs[i].Attempt = "", 0
	}
	for i := range local.Runs {
		if local.Runs[i].Host != "" || local.Runs[i].Attempt != 0 {
			t.Fatalf("subprocess row %d carries provenance %q/%d; local manifests must stay provenance-free",
				i, local.Runs[i].Host, local.Runs[i].Attempt)
		}
	}
	var a, b bytes.Buffer
	if err := remote.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("TCP and subprocess manifests diverge:\n%s\n%s", a.String(), b.String())
	}
}

// dyingDaemon speaks the protocol through exactly one result and then
// drops dead: the connection and listener close without a done or
// error frame, exactly the wire picture a killed daemon process
// leaves behind.
func dyingDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer ln.Close() // dead for good: later failovers must skip this host
		defer conn.Close()
		var req request
		if err := readFrame(conn, &req); err != nil || req.Type != reqHello {
			return
		}
		if err := writeFrame(conn, reply{Type: msgHello, Health: &Health{Version: ProtocolVersion, Capacity: 1}}); err != nil {
			return
		}
		if err := readFrame(conn, &req); err != nil || len(req.Indices) == 0 {
			return
		}
		sum := records.RunSummary{ID: req.Labels[0], Kind: "shard-test", Mode: "test"}
		_ = writeFrame(conn, reply{Type: msgResult, Index: req.Indices[0], Summary: &sum})
	}()
	return ln.Addr().String()
}

// TestTCPDaemonDeathRequeuesToSurvivor kills one of two daemons after
// it has delivered exactly one result; the coordinator must keep that
// row, requeue the remainder onto the surviving daemon, and record the
// failover in the provenance columns.
func TestTCPDaemonDeathRequeuesToSurvivor(t *testing.T) {
	dyingAddr := dyingDaemon(t)
	survivorAddr, _ := startTestServer(t, &Server{Run: scriptedRun})

	var mu sync.Mutex
	retries := 0
	c := Coordinator{
		Shards: 1, // one session: first lands on the dying daemon
		Transport: &TCPTransport{
			Hosts:            []string{dyingAddr, survivorAddr},
			HeartbeatTimeout: 500 * time.Millisecond,
		},
		OnProgress: func(p Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 1})
	m, err := c.Run(context.Background(), "failover", spec, taskLabels(5))
	if err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Fatal("daemon death produced no retry event")
	}
	if len(m.Runs) != 5 {
		t.Fatalf("%d rows after failover, want 5", len(m.Runs))
	}
	requeued := 0
	for i, r := range m.Runs {
		if r.ID != fmt.Sprintf("t/%d", i) {
			t.Fatalf("row %d = %s: global order lost across failover", i, r.ID)
		}
		if r.Attempt > 0 {
			requeued++
			if r.Host != survivorAddr {
				t.Fatalf("requeued row %s ran on %q, want the surviving daemon %q", r.ID, r.Host, survivorAddr)
			}
		}
	}
	if requeued == 0 {
		t.Fatal("no row records a requeued attempt; provenance lost the failover")
	}
}

// TestTCPAllHostsDownFailsCleanly: when no daemon is reachable the run
// must fail promptly with every host's refusal named — not retry
// (connect failures are terminal) and not hang.
func TestTCPAllHostsDownFailsCleanly(t *testing.T) {
	a, b := deadAddr(t), deadAddr(t)
	var mu sync.Mutex
	retries := 0
	c := Coordinator{
		Shards: 2,
		Transport: &TCPTransport{
			Hosts:       []string{a, b},
			DialTimeout: time.Second,
		},
		OnProgress: func(p Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	start := time.Now()
	_, err := c.Run(context.Background(), "down", specJSON(t, testSpec{FailAt: -1, CrashAt: -1}), taskLabels(4))
	if err == nil {
		t.Fatal("run against an empty fleet succeeded")
	}
	if !strings.Contains(err.Error(), "no worker daemon reachable") ||
		!strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Fatalf("err = %v, want both unreachable hosts named", err)
	}
	if retries != 0 {
		t.Fatalf("%d retries for an unreachable fleet; connect failures are terminal", retries)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("all-hosts-down took %v; must fail promptly, not hang", elapsed)
	}
}

// TestTCPHeartbeatsOutliveSlowTasks: a task that stays silent far
// longer than the heartbeat timeout must still complete, because the
// daemon's heartbeats carry the liveness signal.
func TestTCPHeartbeatsOutliveSlowTasks(t *testing.T) {
	srv := &Server{Run: scriptedRun, HeartbeatInterval: 30 * time.Millisecond}
	addr, _ := startTestServer(t, srv)
	c := Coordinator{
		Transport: &TCPTransport{
			Hosts:            []string{addr},
			HeartbeatTimeout: 150 * time.Millisecond,
		},
		Retries: -1, // a false crash verdict must fail the test, not hide behind a retry
	}
	// 500ms per task >> the 150ms silence budget.
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, SleepMS: 500, Scale: 1})
	m, err := c.Run(context.Background(), "slow", spec, taskLabels(2))
	if err != nil {
		t.Fatalf("slow-but-heartbeating daemon was declared dead: %v", err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("%d rows, want 2", len(m.Runs))
	}
}

// wedgedDaemon speaks just enough protocol to take an order, then goes
// silent — no results, no heartbeats — like a SIGSTOP'd process whose
// kernel keeps the TCP session alive.
func wedgedDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var req request
				if err := readFrame(conn, &req); err != nil || req.Type != reqHello {
					return
				}
				if err := writeFrame(conn, reply{Type: msgHello, Health: &Health{Version: ProtocolVersion, Capacity: 1}}); err != nil {
					return
				}
				if err := readFrame(conn, &req); err != nil {
					return
				}
				select {} // wedged: never answer, never heartbeat
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestTCPHeartbeatTimeoutDetectsWedgedDaemon: a daemon that accepts an
// order and then falls silent must be detected within the heartbeat
// timeout and reported as a mid-shard death, not waited on forever.
func TestTCPHeartbeatTimeoutDetectsWedgedDaemon(t *testing.T) {
	addr := wedgedDaemon(t)
	c := Coordinator{
		Retries: -1,
		Transport: &TCPTransport{
			Hosts:            []string{addr},
			HeartbeatTimeout: 200 * time.Millisecond,
		},
	}
	start := time.Now()
	_, err := c.Run(context.Background(), "wedged", specJSON(t, testSpec{FailAt: -1, CrashAt: -1}), taskLabels(3))
	if err == nil {
		t.Fatal("wedged daemon was never detected")
	}
	if !strings.Contains(err.Error(), "no frame or heartbeat within") || !strings.Contains(err.Error(), "died mid-shard") {
		t.Fatalf("err = %v, want heartbeat-timeout crash report", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedge detection took %v with a 200ms budget", elapsed)
	}
}

// TestTCPVersionMismatch drives both halves of version negotiation:
// the daemon refuses a client from the future, and the client refuses
// a daemon from the past.
func TestTCPVersionMismatch(t *testing.T) {
	// Daemon-side refusal: handcraft a hello with a wrong version.
	addr, _ := startTestServer(t, &Server{Run: scriptedRun})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, request{Type: reqHello, Version: ProtocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	var rep reply
	if err := readFrame(conn, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Type != msgError || !strings.Contains(rep.Error, "version mismatch") {
		t.Fatalf("daemon answered %+v to a future client, want a version-mismatch refusal", rep)
	}

	// Client-side refusal: a fake daemon advertising a stale version.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var req request
		if readFrame(c, &req) == nil {
			_ = writeFrame(c, reply{Type: msgHello, Health: &Health{Version: ProtocolVersion - 1}})
		}
		_, _ = c.Read(make([]byte, 1)) // hold the conn until the client hangs up
	}()
	_, _, err = dialWorker(context.Background(), ln.Addr().String(), time.Second, time.Second)
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("dial to a stale daemon = %v, want version-mismatch error", err)
	}
}

// TestTCPServerSurvivesCoordinatorDisconnect: dropping a connection
// mid-order cancels that order but leaves the daemon serving — the
// property that makes daemons long-lived infrastructure rather than
// per-run processes.
func TestTCPServerSurvivesCoordinatorDisconnect(t *testing.T) {
	started := make(chan struct{})
	canceled := make(chan struct{})
	srv := &Server{
		HeartbeatInterval: 20 * time.Millisecond,
		Run: func(ctx context.Context, raw []byte, indices []int, labels []string, emit func(int, records.RunSummary) error) error {
			select {
			case <-started:
			default:
				close(started)
				<-ctx.Done() // first order: stall until the disconnect cancels us
				close(canceled)
				return ctx.Err()
			}
			return scriptedRun(ctx, raw, indices, labels, emit)
		},
	}
	addr, _ := startTestServer(t, srv)

	// First coordinator: handshake, send an order, hang up mid-run.
	sess, _, err := dialWorker(context.Background(), addr, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.sendOrder(order{Spec: specJSON(t, testSpec{FailAt: -1, CrashAt: -1}), Indices: []int{0}, Labels: []string{"t/0"}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := sess.close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("disconnect never canceled the in-flight order")
	}

	// Second coordinator: the daemon must serve a full run as if nothing
	// happened.
	m, err := (&Coordinator{
		Transport: &TCPTransport{Hosts: []string{addr}},
	}).Run(context.Background(), "after", specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 1}), taskLabels(3))
	if err != nil {
		t.Fatalf("daemon did not survive a coordinator disconnect: %v", err)
	}
	if len(m.Runs) != 3 {
		t.Fatalf("%d rows from the surviving daemon, want 3", len(m.Runs))
	}
}

// TestTCPTaskErrorNotRetried mirrors the subprocess semantics over
// TCP: a deliberate task error fails the run without retries, and the
// daemon reports the root cause.
func TestTCPTaskErrorNotRetried(t *testing.T) {
	addr, _ := startTestServer(t, &Server{Run: scriptedRun})
	var mu sync.Mutex
	retries := 0
	c := Coordinator{
		Transport: &TCPTransport{Hosts: []string{addr}},
		OnProgress: func(p Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	_, err := c.Run(context.Background(), "fail", specJSON(t, testSpec{FailAt: 1, CrashAt: -1}), taskLabels(3))
	if err == nil || !strings.Contains(err.Error(), "t/1 exploded") {
		t.Fatalf("err = %v, want the daemon's root cause surfaced", err)
	}
	if retries != 0 {
		t.Fatalf("%d retries for a deliberate task error over TCP", retries)
	}
}

// TestProbe exercises the -doctor primitive against a live daemon and
// a dead address.
func TestProbe(t *testing.T) {
	srv := &Server{Run: scriptedRun, Capacity: 4}
	addr, _ := startTestServer(t, srv)
	info, err := Probe(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Host != addr || info.Version != ProtocolVersion || info.Capacity != 4 {
		t.Fatalf("probe = %+v, want host %s, version %d, capacity 4", info, addr, ProtocolVersion)
	}
	if info.RTT <= 0 {
		t.Fatalf("probe RTT = %v, want > 0", info.RTT)
	}
	if info.Active != 0 || info.Served != 0 {
		t.Fatalf("idle daemon reports active=%d served=%d", info.Active, info.Served)
	}

	if _, err := Probe(context.Background(), deadAddr(t), 500*time.Millisecond); err == nil {
		t.Fatal("probe of a dead address succeeded")
	}
}

// TestProbeCountsServedTasks: the served counter in Health must
// reflect delivered results, so -doctor can show fleet utilization.
func TestProbeCountsServedTasks(t *testing.T) {
	srv := &Server{Run: scriptedRun}
	addr, _ := startTestServer(t, srv)
	if _, err := (&Coordinator{
		Transport: &TCPTransport{Hosts: []string{addr}},
	}).Run(context.Background(), "count", specJSON(t, testSpec{FailAt: -1, CrashAt: -1}), taskLabels(4)); err != nil {
		t.Fatal(err)
	}
	info, err := Probe(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Served != 4 {
		t.Fatalf("served = %d after a 4-task run, want 4", info.Served)
	}
}

// TestCoordinatorCancellationReachesTCP: canceling the run context
// must unblock TCP sessions just as it kills subprocess workers.
func TestCoordinatorCancellationReachesTCP(t *testing.T) {
	srv := &Server{Run: scriptedRun, HeartbeatInterval: 20 * time.Millisecond}
	addr, _ := startTestServer(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := (&Coordinator{
			Transport: &TCPTransport{Hosts: []string{addr}},
		}).Run(ctx, "cancelled", specJSON(t, testSpec{FailAt: -1, CrashAt: -1, SleepMS: 5000}), taskLabels(2))
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not reach the TCP session")
	}
}

// TestServerRejectsMalformedOrder: an order whose labels and indices
// disagree in length is refused with an error frame before anything
// runs, and the daemon keeps serving.
func TestServerRejectsMalformedOrder(t *testing.T) {
	var ran atomic.Bool
	srv := &Server{Run: func(ctx context.Context, raw []byte, indices []int, labels []string, emit func(int, records.RunSummary) error) error {
		ran.Store(true)
		return nil
	}}
	addr, _ := startTestServer(t, srv)
	sess, _, err := dialWorker(context.Background(), addr, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	if err := sess.sendOrder(order{Indices: []int{0, 1}, Labels: []string{"only-one"}}); err != nil {
		t.Fatal(err)
	}
	var rep reply
	if err := sess.recv(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Type != msgError || !strings.Contains(rep.Error, "2 indices") {
		t.Fatalf("reply = %+v, want an error frame naming the label/index mismatch", rep)
	}
	if ran.Load() {
		t.Fatal("malformed order reached the RunFunc")
	}
	if _, err := Probe(context.Background(), addr, time.Second); err != nil {
		t.Fatalf("daemon stopped serving after a malformed order: %v", err)
	}
}

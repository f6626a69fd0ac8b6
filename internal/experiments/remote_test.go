package experiments

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments/shard"
	"repro/internal/records"
)

// startDaemon re-execs the test binary as a worker daemon subprocess
// (see TestMain) and returns its announced address plus the process
// handle, so tests can kill or stop a real daemon the way operators
// would lose one. The daemon is killed at cleanup.
func startDaemon(t *testing.T, extraEnv ...string) (addr string, proc *os.Process) {
	t.Helper()
	cmd := daemonCmd(context.Background(), extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon never announced its address: %v", err)
	}
	addr, err = shard.ParseAnnounce(line)
	if err != nil {
		t.Fatal(err)
	}
	return addr, cmd.Process
}

// stripProvenance asserts every row of a remote manifest names one of
// the expected hosts, then clears Host/Attempt in place so the
// manifest can be byte-compared against local runs.
func stripProvenance(t *testing.T, m *records.RunManifest, hosts ...string) {
	t.Helper()
	allowed := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		allowed[h] = true
	}
	for i := range m.Runs {
		if !allowed[m.Runs[i].Host] {
			t.Fatalf("row %s ran on %q, want one of %v", m.Runs[i].ID, m.Runs[i].Host, hosts)
		}
		m.Runs[i].Host = ""
		m.Runs[i].Attempt = 0
	}
}

// TestRemoteSpecMatchesOtherExecutors is the tentpole's acceptance
// gate: the same spec through Remote over two localhost daemons —
// including the rlbase task each daemon retrains from the spec's seeds
// — yields a manifest byte-identical (wall times, worker accounting
// and provenance aside) to the Parallel and Sharded runs.
func TestRemoteSpecMatchesOtherExecutors(t *testing.T) {
	addr1, _ := startDaemon(t)
	addr2, _ := startDaemon(t)
	spec := specForSmallCase(TaskMatrix{Kind: "modes"})

	par, err := Run(context.Background(), spec, Parallel{Options: ExecOptions{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Run(context.Background(), spec, Sharded{Options: ShardOptions{Shards: 2, Command: selfWorker(t)}})
	if err != nil {
		t.Fatal(err)
	}
	rem, err := Run(context.Background(), spec, Remote{Options: RemoteOptions{Hosts: []string{addr1, addr2}}})
	if err != nil {
		t.Fatal(err)
	}
	stripProvenance(t, rem, addr1, addr2)

	want := normalizedJSON(t, par)
	if got := normalizedJSON(t, sh); !bytes.Equal(want, got) {
		t.Fatalf("sharded manifest diverges from parallel:\n%s\n%s", got, want)
	}
	if got := normalizedJSON(t, rem); !bytes.Equal(want, got) {
		t.Fatalf("remote manifest diverges from parallel:\n%s\n%s", got, want)
	}
}

// TestRemoteDaemonKillRequeuesToSurvivor arms the crash-once fault in
// one of two real daemon processes: it exits mid-order, and the run
// must finish on the survivor with the failover recorded per row — and
// still match the in-process result.
func TestRemoteDaemonKillRequeuesToSurvivor(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crash-once")
	crashAddr, _ := startDaemon(t, "EXPERIMENTS_SHARD_CRASH_ONCE="+flag)
	survivorAddr, _ := startDaemon(t)

	seeds := []int64{1, 2, 3, 4, 5, 6}
	cs := smallCase()
	cs.Workload.N = 30
	var mu sync.Mutex
	retries := 0
	opt := RemoteOptions{
		ExecOptions: ExecOptions{Retries: 2},
		Hosts:       []string{crashAddr, survivorAddr},
		OnEvent: func(p shard.Progress) {
			mu.Lock()
			if p.Event == "retry" {
				retries++
			}
			mu.Unlock()
		},
	}
	matrix := TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: seeds}
	m, err := Remote{Options: opt}.Execute(context.Background(), cs, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(flag); err != nil {
		t.Fatalf("crash flag never created — the fault was not injected: %v", err)
	}
	if retries == 0 {
		t.Fatal("daemon kill produced no retry event")
	}
	if len(m.Runs) != len(seeds) {
		t.Fatalf("%d manifest rows, want %d", len(m.Runs), len(seeds))
	}
	requeued := 0
	for i, r := range m.Runs {
		want := fmt.Sprintf("replicate/speed/seed%d", seeds[i])
		if r.ID != want {
			t.Fatalf("row %d = %q, want %q: duplicate or misordered row after failover", i, r.ID, want)
		}
		if r.Attempt > 0 {
			requeued++
			if r.Host != survivorAddr {
				t.Fatalf("requeued row %s ran on %q, want the surviving daemon %q", r.ID, r.Host, survivorAddr)
			}
		}
	}
	if requeued == 0 {
		t.Fatal("no row records a requeued attempt; failover provenance lost")
	}

	if want := inProcess(t, Parallel{Options: ExecOptions{Workers: 2}}, matrix); !bytes.Equal(want, normalizedJSON(t, m)) {
		t.Fatal("manifest after daemon kill diverges from in-process run")
	}
}

// TestRemoteRequiresHosts: remote execution without a fleet is a
// configuration error, caught before any dialing.
func TestRemoteRequiresHosts(t *testing.T) {
	cs := smallCase()
	_, err := Remote{}.Execute(context.Background(), cs, TaskMatrix{Kind: "modes"})
	if err == nil || !strings.Contains(err.Error(), "at least one worker daemon host") {
		t.Fatalf("err = %v, want missing-hosts rejection", err)
	}
}

// TestRemoteAllHostsDownFailsCleanly: a fleet of dead addresses must
// produce a prompt, named error — never a hang or a retry storm.
func TestRemoteAllHostsDownFailsCleanly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	cs := smallCase()
	opt := RemoteOptions{
		Hosts:       []string{dead},
		DialTimeout: time.Second,
	}
	start := time.Now()
	_, err = Remote{Options: opt}.Execute(context.Background(), cs, TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "no worker daemon reachable") {
		t.Fatalf("err = %v, want no-daemon-reachable error", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("dead fleet took %v to fail; must not hang", elapsed)
	}
}

// TestRemoteStoppedDaemonDetected SIGSTOPs a real daemon: the kernel
// still accepts TCP connections for it, so only the handshake deadline
// can tell an operator the process is wedged. The run must fail within
// the dial budget, naming the host.
func TestRemoteStoppedDaemonDetected(t *testing.T) {
	addr, proc := startDaemon(t)
	if err := proc.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	cs := smallCase()
	opt := RemoteOptions{
		Hosts:       []string{addr},
		DialTimeout: 500 * time.Millisecond,
	}
	start := time.Now()
	_, err := Remote{Options: opt}.Execute(context.Background(), cs, TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: []int64{1}})
	if err == nil {
		t.Fatal("run against a SIGSTOP'd daemon succeeded")
	}
	if !strings.Contains(err.Error(), "no worker daemon reachable") || !strings.Contains(err.Error(), addr) {
		t.Fatalf("err = %v, want the wedged host named as unreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("wedged daemon took %v to detect", elapsed)
	}
}

// TestSpecHostsValidation: the hosts block is validated with the rest
// of the spec, and a valid list survives the JSON round trip.
func TestSpecHostsValidation(t *testing.T) {
	bad := Spec{Matrices: []TaskMatrix{{Kind: "modes"}}, Hosts: []string{"nope"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "not host:port") {
		t.Fatalf("err = %v, want host:port rejection", err)
	}
	good := Spec{Matrices: []TaskMatrix{{Kind: "modes"}}, Hosts: []string{"10.0.0.1:7070", "worker-2:7070"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hosts rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := good.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Hosts) != 2 || loaded.Hosts[0] != "10.0.0.1:7070" {
		t.Fatalf("hosts lost in round trip: %v", loaded.Hosts)
	}
}

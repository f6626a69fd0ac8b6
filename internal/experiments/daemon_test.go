package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments/shard"
)

// runSlowCoordinator is the REPRO_SHARD_COORDINATOR mode of the test
// binary: a Sharded run on one spawned daemon, long enough to be
// killed mid-order. It prints "running" on stdout once the daemon has
// delivered its first result.
func runSlowCoordinator() {
	cs := smallCase()
	cs.Workload.N = 30
	sharded := Sharded{Options: ShardOptions{
		Shards:  1,
		Command: func(ctx context.Context) *exec.Cmd { return daemonCmd(ctx) },
		OnEvent: func(p shard.Progress) {
			if p.Event == "result" && p.Done == 1 {
				fmt.Println("running")
			}
		},
	}}
	matrix := TaskMatrix{Kind: "replicate", Mode: "speed", Seeds: CanonicalReplicationSeeds(MaxReplications)}
	if _, err := sharded.Execute(context.Background(), cs, matrix); err != nil {
		fmt.Fprintln(os.Stderr, "slow coordinator:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childPIDs lists the live child processes of pid, from /proc.
func childPIDs(t *testing.T, pid int) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []int
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		// "pid (comm) state ppid ...": comm may hold spaces and parens.
		fields := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
		if len(fields) < 2 || fields[0] == "Z" || fields[1] != strconv.Itoa(pid) {
			continue
		}
		kid, err := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		if err == nil {
			kids = append(kids, kid)
		}
	}
	return kids
}

// processGone reports whether pid has exited (a zombie awaiting its
// reaper counts as exited).
func processGone(pid int) bool {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	fields := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	return len(fields) == 0 || fields[0] == "Z" || fields[0] == "X"
}

// TestShardedWorkerDiesWithCoordinator SIGKILLs a coordinator in the
// middle of a Sharded order — no deferred cleanup runs — and checks
// that the worker daemon it spawned exits on its own: the stdin
// lifeline is the only thing that can tell it its coordinator is gone.
func TestShardedWorkerDiesWithCoordinator(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc to find the coordinator's children")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	coord := exec.Command(exe)
	coord.Env = append(os.Environ(), "REPRO_SHARD_COORDINATOR=1")
	coord.Stderr = os.Stderr
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Process.Kill()
		coord.Wait()
	})
	if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "running\n" {
		t.Fatalf("coordinator never reported a result: %q, %v", line, err)
	}
	workers := childPIDs(t, coord.Process.Pid)
	if len(workers) == 0 {
		t.Fatal("coordinator has no worker daemon child")
	}
	t.Cleanup(func() {
		for _, pid := range workers {
			syscall.Kill(pid, syscall.SIGKILL)
		}
	})
	if err := coord.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range workers {
		for !processGone(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("worker daemon %d outlived its SIGKILLed coordinator", pid)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestDaemonStdinLifeline: a daemon whose stdin is a pipe shuts down
// cleanly when the pipe closes, while one started with stdin from
// /dev/null — a standalone `-serve` daemon — keeps serving after it.
func TestDaemonStdinLifeline(t *testing.T) {
	standalone, _ := startDaemon(t) // stdin is /dev/null

	piped := daemonCmd(context.Background())
	piped.Stderr = os.Stderr
	lifeline, err := piped.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := piped.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := piped.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { piped.Process.Kill() })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("piped daemon never announced its address: %v", err)
	}
	addr, err := shard.ParseAnnounce(line)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Probe(context.Background(), addr, time.Second); err != nil {
		t.Fatalf("piped daemon not serving before its lifeline closed: %v", err)
	}

	if err := lifeline.Close(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- piped.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after its lifeline closed = %v, want a clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon kept serving after its stdin pipe closed")
	}
	if _, err := shard.Probe(context.Background(), standalone, time.Second); err != nil {
		t.Fatalf("daemon with stdin from /dev/null stopped serving: %v", err)
	}
}

// TestShardServerRejectsOversizedOrder: an order whose sweep values and
// replication seeds multiply past MaxTasks is refused with an error
// frame before anything is expanded, and the daemon keeps serving.
func TestShardServerRejectsOversizedOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ShardServer(1, nil).Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	addr := ln.Addr().String()

	// 4M tasks from a frame of a few kilobytes.
	huge := smallCase().shardSpec(TaskMatrix{
		Kind: "phi-sweep", Mode: "speed",
		Values:           make([]float64, 2000),
		ReplicationSeeds: make([]int64, 2000),
	}, 1)
	raw, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	coord := shard.Coordinator{Transport: &shard.TCPTransport{Hosts: []string{addr}}, Retries: -1}
	if _, err := coord.Run(context.Background(), "huge", raw, []string{"phi-sweep/speed/0@seed0"}); err == nil || !strings.Contains(err.Error(), "MaxTasks") {
		t.Fatalf("err = %v, want the daemon's MaxTasks rejection", err)
	}
	if _, err := shard.Probe(context.Background(), addr, time.Second); err != nil {
		t.Fatalf("daemon stopped serving after an oversized order: %v", err)
	}
}

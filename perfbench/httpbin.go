package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is a running qcloudsim -serve -http.
type serverProc struct {
	cmd         *exec.Cmd
	base        string
	ready       time.Duration // spawn → /healthz 200
	done        sync.WaitGroup
	stdoutBytes int64
	finished    []uint8 // finish lines per generated job index
	stderr      bytes.Buffer
}

// startServer spawns the HTTP broker on a free loopback port and waits
// until /healthz answers. nJobs sizes the finish-line tally.
func (b *bench) startServer(nJobs int) (*serverProc, error) {
	s := &serverProc{finished: make([]uint8, nJobs)}
	s.cmd = exec.CommandContext(b.ctx, b.bin("qcloudsim"), "-serve", "-http", "127.0.0.1:0", "-policy", "speed")
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	s.done.Add(2)
	go func() {
		defer s.done.Done()
		const marker = "HTTP control plane on "
		found := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 && !found {
				found = true
				addr <- line[i+len(marker):]
			}
			s.stderr.WriteString(line + "\n")
		}
		close(addr)
	}()
	go func() {
		defer s.done.Done()
		br := bufio.NewReaderSize(stdout, 256<<10)
		for {
			line, err := br.ReadSlice('\n')
			s.stdoutBytes += int64(len(line))
			if i, ok := finishedJob(line); ok && i < len(s.finished) {
				s.finished[i]++
			}
			if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
				return
			}
		}
	}()
	base, ok := <-addr
	if !ok {
		s.stop()
		return nil, fmt.Errorf("qcloudsim -serve -http exited before listening: %s", tail(s.stderr.Bytes()))
	}
	if err := waitHealthy(b.ctx, base); err != nil {
		s.stop()
		return nil, err
	}
	s.base, s.ready = base, time.Since(t0)
	return s, nil
}

// stop sends SIGTERM, which makes the broker drain every admitted job
// and exit, then waits for its output streams and the process.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill()
	}
	s.done.Wait()
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("qcloudsim -serve -http: %v: %s", err, tail(s.stderr.Bytes()))
	}
	return nil
}

// httpConns is the open loop's connection count: two, or one per CPU
// where there are fewer.
func httpConns() int {
	return min(2, runtime.NumCPU())
}

// httpRun is the binary phase of http-mixed, kept for the traced phase.
type httpRun struct {
	reqs   []httpReq
	bodies [][]byte
	jobs   []genJob
	loop   *loopResult
	stdout float64 // stdout bytes per accepted job
}

// httpBinary runs the open loop against qcloudsim -serve -http. Each
// request is one op; a submit also fails when any of its jobs lacks
// exactly one finish line on stdout once the broker has drained.
func (b *bench) httpBinary() (*httpRun, error) {
	reqs, bodies, jobs := httpWorkload(b.seed, max(b.seconds, time.Second))
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, err := b.startServer(0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready.Seconds())
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	s, err := b.startServer(len(jobs))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.ready.Seconds())
	loop := runOpenLoop(b.ctx, s.base, reqs, bodies, jobs, httpConns())
	if err := s.stop(); err != nil {
		return nil, err
	}
	lost := 0
	for i, r := range reqs {
		if r.kind != reqSubmit || !loop.ok[i] {
			continue
		}
		for _, c := range s.finished[r.body*httpBatch : (r.body+1)*httpBatch] {
			if c != 1 {
				lost++
				break
			}
		}
	}
	b.loopOps(loop)
	if lost > 0 {
		b.ops(0, fmt.Errorf("%d submits with jobs lacking exactly one finish line", lost), lost)
	}
	b.set("setup_s", median(setups))
	b.set("jobs_per_s", float64(loop.accepted)/loop.span.Seconds())
	b.set("op_p50_ms", windowed(reqs, loop.lat, 0.5))
	b.set("peak_rss_mb", rssMB(s.cmd.ProcessState))
	run := &httpRun{reqs: reqs, bodies: bodies, jobs: jobs, loop: loop}
	if loop.accepted > 0 {
		run.stdout = float64(s.stdoutBytes) / float64(loop.accepted)
	}
	return run, nil
}

// warmupLen is the start of the schedule left out of latency figures:
// its requests open the connections and warm the server up. They are
// still sent and checked.
const warmupLen = time.Second

// warmup returns the index of the first request past the warm-up.
func warmup(reqs []httpReq) int {
	for i, r := range reqs {
		if r.at >= warmupLen {
			return i
		}
	}
	return 0
}

// windowed returns the q-quantile of request latencies (ms) per second
// of the schedule past the warm-up, and the median over those seconds:
// a second in which a noisy neighbour stalled the machine moves one
// window, not the figure.
func windowed(reqs []httpReq, lat []time.Duration, q float64) float64 {
	var perWindow []float64
	var cur []float64
	w := warmup(reqs)
	for i := w; i < len(reqs); i++ {
		cur = append(cur, float64(lat[i])/float64(time.Millisecond))
		if i+1 == len(reqs) || reqs[i+1].at/time.Second != reqs[i].at/time.Second {
			perWindow = append(perWindow, quantile(cur, q))
			cur = cur[:0]
		}
	}
	return median(perWindow)
}

// loopOps counts an open loop's requests as ops.
func (b *bench) loopOps(loop *loopResult) {
	b.ops(len(loop.ok), nil, 0)
	b.failed += loop.failed
	for _, p := range loop.problems {
		b.problem(errors.New(p))
	}
}

// httpSplit returns the submit and read latency percentiles and the
// generator's lateness over the whole schedule, all in ms.
func httpSplit(r *httpRun) map[string]float64 {
	w := warmup(r.reqs)
	submits, reads := kindLatencies(r.reqs[w:], r.loop.lat[w:])
	late := millis(r.loop.late)
	return map[string]float64{
		"http.submit_p50_ms":   quantile(submits, 0.5),
		"http.submit_p90_ms":   quantile(submits, 0.9),
		"http.read_p50_ms":     quantile(reads, 0.5),
		"http.read_p90_ms":     quantile(reads, 0.9),
		"http.gen_late_p90_ms": quantile(late, 0.9),
		"http.gen_late_max_ms": maxOf(late),
	}
}

func runHTTP(b *bench) error {
	r, err := b.httpBinary()
	if err != nil {
		return err
	}
	split := httpSplit(r)
	names := make([]string, 0, len(split))
	for name := range split {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "http-mixed: %s %.4f ms\n", name, split[name])
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// passResult is one qcloudsim -serve process fed a whole NDJSON stream.
type passResult struct {
	procResult
	firstLine time.Duration // spawn → first lifecycle line on stdout
	lat       []float64     // per job: line written to stdin → its finish line read, ms
	missing   int           // jobs without exactly one finish line
}

var finishPrefix = []byte(`{"event":"finish","job_id":"`)

// finishedJob returns the generated job index of a finish lifecycle line.
func finishedJob(line []byte) (int, bool) {
	if !bytes.HasPrefix(line, finishPrefix) {
		return 0, false
	}
	rest := line[len(finishPrefix):]
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return 0, false
	}
	return jobIndex(rest[:q])
}

// streamPass spawns qcloudsim with args, writes lines to its stdin in
// 64 KiB chunks while draining its stdout, and waits for it to exit. A
// line counts as sent when the write holding it returns.
func (b *bench) streamPass(lines [][]byte, args ...string) (*passResult, error) {
	cmd := exec.CommandContext(b.ctx, b.bin("qcloudsim"), args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	n := len(lines)
	sent := make([]time.Duration, n)
	fin := make([]time.Duration, n)
	count := make([]uint8, n)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	writeErr := make(chan error, 1)
	go func() {
		const chunk = 64 << 10
		buf := make([]byte, 0, chunk)
		from := 0
		flush := func(to int) error {
			_, err := stdin.Write(buf)
			now := time.Since(t0)
			for k := from; k < to; k++ {
				sent[k] = now
			}
			buf, from = buf[:0], to
			return err
		}
		var err error
		for i, l := range lines {
			if len(buf)+len(l) > chunk && len(buf) > 0 {
				if err = flush(i); err != nil {
					break
				}
			}
			buf = append(buf, l...)
		}
		if err == nil {
			err = flush(n)
		}
		if cerr := stdin.Close(); err == nil {
			err = cerr
		}
		writeErr <- err
	}()
	res := &passResult{}
	br := bufio.NewReaderSize(stdout, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := time.Since(t0)
			if res.stdoutBytes == 0 {
				res.firstLine = now
			}
			res.stdoutBytes += int64(len(line))
			if i, ok := finishedJob(line); ok && i < n {
				fin[i] = now
				count[i]++
			}
		}
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			break
		}
	}
	werr := <-writeErr
	waitErr := cmd.Wait()
	res.wall = time.Since(t0)
	if waitErr != nil {
		return nil, fmt.Errorf("qcloudsim %s: %v: %s", strings.Join(args, " "), waitErr, tail(stderr.Bytes()))
	}
	if werr != nil {
		return nil, fmt.Errorf("writing the job stream: %w", werr)
	}
	res.rssMB = rssMB(cmd.ProcessState)
	res.cpu = cpuTime(cmd.ProcessState)
	res.lat = make([]float64, 0, n)
	for i := range lines {
		if count[i] != 1 {
			res.missing++
			continue
		}
		res.lat = append(res.lat, float64(fin[i]-sent[i])/float64(time.Millisecond))
	}
	return res, nil
}

// serveInputs generates the serve-stream workload and its batch reference:
// the export of qcloudsim -jobs over the same jobs as CSV. The reference
// run is one op.
func (b *bench) serveInputs() (lines [][]byte, ndjson string, ref []byte, err error) {
	jobs := genJobs(b.seed, streamServe, serveJobs, serveGapS, 0)
	lines = ndjsonLines(jobs)
	csv, ndjson, refPath := b.path("serve.csv"), b.path("serve.ndjson"), b.path("batch-export.csv")
	if err := os.WriteFile(csv, csvBytes(jobs), 0o644); err != nil {
		return nil, "", nil, err
	}
	if err := os.WriteFile(ndjson, bytes.Join(lines, nil), 0o644); err != nil {
		return nil, "", nil, err
	}
	if _, err := b.runBin("qcloudsim", "-policy", "fair", "-jobs", csv, "-export", refPath); err != nil {
		return nil, "", nil, err
	}
	ref, err = os.ReadFile(refPath)
	if err != nil {
		return nil, "", nil, err
	}
	b.op(checkExport(ref, serveJobs))
	return lines, ndjson, ref, nil
}

// serveRounds streams the workload through qcloudsim -serve, pass after
// pass, until the passes add up to at least seconds (one pass at least).
// Each streamed job is one op: it fails without exactly one finish line,
// and the whole pass fails unless its export equals the batch export.
func (b *bench) serveRounds(lines [][]byte, ref []byte, seconds time.Duration) (stdoutPerJob float64, err error) {
	var setups, cpus, p50s, rss []float64
	// Set-up is spawn → first lifecycle line, sampled on one-job streams
	// as well as on every full pass.
	for i := 0; i < setupRuns-1; i++ {
		p, err := b.streamPass(lines[:1], "-serve", "-policy", "fair")
		if err != nil {
			return 0, err
		}
		setups = append(setups, p.firstLine.Seconds())
	}
	var busy time.Duration
	var stdout int64
	jobs := 0
	for busy < seconds || jobs == 0 {
		export := b.path("serve-export.csv")
		p, err := b.streamPass(lines, "-serve", "-policy", "fair", "-export", export)
		if err != nil {
			return 0, err
		}
		busy += p.wall
		jobs += len(lines)
		stdout += p.stdoutBytes
		setups = append(setups, p.firstLine.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		p50s = append(p50s, quantile(p.lat, 0.5))
		rss = append(rss, p.rssMB)
		got, err := os.ReadFile(export)
		switch {
		case err != nil:
			b.ops(len(lines), err, len(lines))
		case !bytes.Equal(got, ref):
			b.ops(len(lines), fmt.Errorf("serve export differs from the batch export of the same jobs"), len(lines))
		case p.missing > 0:
			b.ops(len(lines), fmt.Errorf("%d jobs without exactly one finish line", p.missing), p.missing)
		default:
			b.ops(len(lines), nil, 0)
		}
	}
	// Each figure is the median over passes, so one pass slowed by a
	// noisy neighbour does not move it; throughput counts the simulator's
	// CPU time, as for the batch workloads.
	b.set("setup_s", median(setups))
	b.set("jobs_per_s", float64(len(lines))/median(cpus))
	b.set("op_p50_ms", median(p50s))
	b.set("peak_rss_mb", median(rss))
	return float64(stdout) / float64(jobs), nil
}

func runServe(b *bench) error {
	lines, _, ref, err := b.serveInputs()
	if err != nil {
		return err
	}
	_, err = b.serveRounds(lines, ref, b.seconds)
	return err
}

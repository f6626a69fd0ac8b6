package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what the open-loop generator saw. Per-request slices are
// indexed like the schedule; every latency is timed from the request's
// scheduled send time, so a stall also charges the requests queued behind
// it.
type loopResult struct {
	lat      []time.Duration // scheduled send → response read
	service  []time.Duration // actual send → response read
	late     []time.Duration // actual send − scheduled send
	ok       []bool          // the request passed its checks
	accepted int             // jobs accepted by 202 submits
	failed   int
	problems []string
	// queueDepth holds the queue_depth field of every GET /v1/metrics.
	queueDepth []float64
	// span is scheduled start → last response read.
	span time.Duration
}

// runOpenLoop sends the schedule to base over conns keep-alive
// connections, one worker goroutine per connection. A worker takes the
// next request in schedule order and sends it when due, or at once if it
// is already late; a request never waits for another's reply except for
// a free connection, so the offered rate stays fixed however slow the
// server is.
func runOpenLoop(ctx context.Context, base string, reqs []httpReq, bodies [][]byte, jobs []genJob, conns int) *loopResult {
	res := &loopResult{
		lat:     make([]time.Duration, len(reqs)),
		service: make([]time.Duration, len(reqs)),
		late:    make([]time.Duration, len(reqs)),
		ok:      make([]bool, len(reqs)),
	}
	var (
		next     atomic.Int64
		lastBody atomic.Int64 // 1 + highest body index whose submit completed
		mu       sync.Mutex   // guards accepted, failed, problems, queueDepth
		wg       sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < conns; w++ {
		client := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := reqs[i]
				due := start.Add(r.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				var (
					req    *http.Request
					err    error
					wantID string
				)
				switch r.kind {
				case reqSubmit:
					req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(bodies[r.body]))
				case reqJob:
					// Read a job of the latest completed submit, so the
					// job is known to the broker. Only the first reads
					// can find no submit done yet; they wait for one.
					for lastBody.Load() == 0 && ctx.Err() == nil {
						time.Sleep(100 * time.Microsecond)
					}
					wantID = jobs[int(lastBody.Load()-1)*httpBatch+r.pick].ID
					req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+wantID, nil)
				default:
					req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
				}
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				req.Header.Set(reqIDHeader, strconv.Itoa(i))
				sent := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close() // fully read; the close error carries nothing
				done := time.Now()
				res.lat[i], res.service[i], res.late[i] = done.Sub(due), done.Sub(sent), sent.Sub(due)
				if err != nil {
					fail("request %d: reading response: %v", i, err)
					continue
				}
				switch r.kind {
				case reqSubmit:
					var sr struct{ Submitted, Accepted int }
					if resp.StatusCode != http.StatusAccepted {
						fail("submit %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
						continue
					}
					if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
						fail("submit %d: %v", i, err)
						continue
					}
					if sr.Submitted != httpBatch || sr.Accepted != sr.Submitted {
						fail("submit %d: submitted %d accepted %d, want %d", i, sr.Submitted, sr.Accepted, httpBatch)
						continue
					}
					mu.Lock()
					res.accepted += sr.Accepted
					mu.Unlock()
					for b := int64(r.body + 1); ; {
						cur := lastBody.Load()
						if cur >= b || lastBody.CompareAndSwap(cur, b) {
							break
						}
					}
				case reqJob:
					if resp.StatusCode != http.StatusOK || !bytes.Contains(buf.Bytes(), []byte(`"job_id":"`+wantID+`"`)) {
						fail("read %d: GET /v1/jobs/%s: status %d", i, wantID, resp.StatusCode)
						continue
					}
				default:
					var m struct {
						QueueDepth *float64 `json:"queue_depth"`
					}
					if resp.StatusCode != http.StatusOK {
						fail("read %d: GET /v1/metrics: status %d", i, resp.StatusCode)
						continue
					}
					if err := json.Unmarshal(buf.Bytes(), &m); err != nil || m.QueueDepth == nil {
						fail("read %d: GET /v1/metrics: body without queue_depth", i)
						continue
					}
					mu.Lock()
					res.queueDepth = append(res.queueDepth, *m.QueueDepth)
					mu.Unlock()
				}
				res.ok[i] = true
			}
		}()
	}
	wg.Wait()
	res.span = time.Since(start)
	if ctx.Err() != nil {
		fail("open loop cut short: %v", ctx.Err())
	}
	return res
}

// reqIDHeader carries the schedule index, so server-side spans name the
// request they belong to.
const reqIDHeader = "X-Bench-Request"

// kindLatencies splits per-request latencies by request kind.
func kindLatencies(reqs []httpReq, lat []time.Duration) (submits, reads []float64) {
	for i, r := range reqs {
		ms := float64(lat[i]) / float64(time.Millisecond)
		if r.kind == reqSubmit {
			submits = append(submits, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	return submits, reads
}

// waitHealthy polls GET base/healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("waiting for %s/healthz: %w", base, ctx.Err())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

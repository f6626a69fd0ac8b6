package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// genJob is one generated job. The distribution is the paper's synthetic
// case-study workload: q ∈ [130,250], d ∈ [5,20], shots ∈ [10k,100k],
// t2 = round(q·d/4), Poisson arrivals. The arrival time is formatted once
// so the CSV and NDJSON renderings of a workload parse to the same float.
type genJob struct {
	ID                       string
	Qubits, Depth, Shots, T2 int
	Arrival                  string
	Tenant                   string
}

// Streams keep the workloads' random sequences independent of each other
// for one --seed.
const (
	streamTable2 = iota + 1
	streamBackfill
	streamServe
	streamHTTP
)

// genJobs draws n jobs with the given mean inter-arrival time. A non-zero
// tenants spreads the jobs uniformly over that many tenants.
func genJobs(seed int64, stream int64, n int, meanGap float64, tenants int) []genJob {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	uniform := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	jobs := make([]genJob, n)
	t := 0.0
	for i := range jobs {
		t += rng.ExpFloat64() * meanGap
		q, d := uniform(130, 250), uniform(5, 20)
		jobs[i] = genJob{
			ID:      fmt.Sprintf("job-%07d", i),
			Qubits:  q,
			Depth:   d,
			Shots:   uniform(10_000, 100_000),
			T2:      (q*d + 2) / 4,
			Arrival: strconv.FormatFloat(t, 'g', -1, 64),
		}
		if tenants > 0 {
			jobs[i].Tenant = "tenant-" + strconv.Itoa(rng.Intn(tenants))
		}
	}
	return jobs
}

// jobIndex parses the sequence number out of a generated job ID.
func jobIndex(id []byte) (int, bool) {
	if len(id) != 11 || !bytes.HasPrefix(id, []byte("job-")) {
		return 0, false
	}
	n := 0
	for _, c := range id[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// csvBytes renders jobs in the batch loader's CSV schema.
func csvBytes(jobs []genJob) []byte {
	var b bytes.Buffer
	b.WriteString("job_id,num_qubits,depth,num_shots,arrival_time,two_qubit_gates\n")
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%s,%d\n", j.ID, j.Qubits, j.Depth, j.Shots, j.Arrival, j.T2)
	}
	return b.Bytes()
}

// appendNDJSON appends one job in the broker's line-delimited JSON schema.
func appendNDJSON(b []byte, j genJob) []byte {
	b = append(b, `{"job_id":"`...)
	b = append(b, j.ID...)
	b = append(b, `","num_qubits":`...)
	b = strconv.AppendInt(b, int64(j.Qubits), 10)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(j.Depth), 10)
	b = append(b, `,"num_shots":`...)
	b = strconv.AppendInt(b, int64(j.Shots), 10)
	b = append(b, `,"arrival_time":`...)
	b = append(b, j.Arrival...)
	b = append(b, `,"two_qubit_gates":`...)
	b = strconv.AppendInt(b, int64(j.T2), 10)
	if j.Tenant != "" {
		b = append(b, `,"tenant":"`...)
		b = append(b, j.Tenant...)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

// ndjsonLines renders each job as its own NDJSON line.
func ndjsonLines(jobs []genJob) [][]byte {
	lines := make([][]byte, len(jobs))
	for i, j := range jobs {
		lines[i] = appendNDJSON(nil, j)
	}
	return lines
}

// Request kinds of the http-mixed traffic mix.
const (
	reqSubmit = iota
	reqJob
	reqMetrics
)

// httpReq is one scheduled request of the open loop. Submits carry the
// index of their pre-split body; job reads carry which job of the most
// recently completed submit to look up.
type httpReq struct {
	at   time.Duration
	kind int
	body int
	pick int
}

const (
	httpRate      = 400 // requests per second, fixed
	httpBatch     = 32  // jobs per POST body
	httpTenants   = 4
	httpMeanGapS  = 400 // mean simulated inter-arrival, s
	httpReadEvery = 4   // every 4th request is a read
)

// httpWorkload fixes the whole http-mixed schedule up front: a request
// every 1/httpRate s for the given length; every httpReadEvery-th is a
// read, alternating GET /v1/jobs/{id} and GET /v1/metrics; the rest are
// POST /v1/jobs with httpBatch jobs each, in arrival order.
func httpWorkload(seed int64, length time.Duration) ([]httpReq, [][]byte, []genJob) {
	total := int(length.Seconds() * httpRate)
	if total < httpReadEvery {
		total = httpReadEvery
	}
	posts := total - total/httpReadEvery
	jobs := genJobs(seed, streamHTTP, posts*httpBatch, httpMeanGapS, httpTenants)
	bodies := make([][]byte, posts)
	for i := range bodies {
		var b []byte
		for _, j := range jobs[i*httpBatch : (i+1)*httpBatch] {
			b = appendNDJSON(b, j)
		}
		bodies[i] = b
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + streamHTTP + 100))
	reqs := make([]httpReq, total)
	body, reads := 0, 0
	for i := range reqs {
		r := httpReq{at: time.Duration(i) * time.Second / httpRate}
		if i%httpReadEvery == httpReadEvery-1 {
			r.kind = reqJob
			if reads%2 == 1 {
				r.kind = reqMetrics
			}
			r.pick = rng.Intn(httpBatch)
			reads++
		} else {
			r.kind, r.body = reqSubmit, body
			body++
		}
		reqs[i] = r
	}
	return reqs, bodies, jobs
}

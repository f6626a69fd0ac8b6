// Package job defines quantum jobs (QJob) and the workload sources the
// framework supports: the stochastic synthetic generator used in the
// paper's case study (§7), and deterministic CSV/JSON loaders for
// benchmarking and debugging (§3, JobGenerator).
package job

import (
	"fmt"
	"math/rand"
	"sort"
)

// QJob describes one quantum task: a single circuit with its resource
// requirements, mirroring the paper's QJob attributes (§3) plus the
// two-qubit gate count t2 from the §4 problem definition.
//
// The json tags name the fields as the workload wire schema (loader.go's
// jobJSON) does, so a QJob written with encoding/json reads like a
// workload record.
type QJob struct {
	// ID uniquely identifies the job.
	ID string `json:"job_id"`
	// NumQubits is the total qubit requirement q.
	NumQubits int `json:"num_qubits"`
	// Depth is the circuit depth d.
	Depth int `json:"depth"`
	// Shots is the number of measurement repetitions s.
	Shots int `json:"num_shots"`
	// TwoQubitGates is the circuit's two-qubit gate count t2.
	TwoQubitGates int `json:"two_qubit_gates"`
	// ArrivalTime is when the job enters the cloud (simulation seconds).
	ArrivalTime float64 `json:"arrival_time"`
	// Tenant optionally labels the submitting tenant for per-tenant
	// broker metrics. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Ingest records where the job entered the system. It is stamped
	// server-side by the broker's connection-oriented ingest paths (TCP
	// and HTTP) and is not part of the workload wire schema: clients
	// cannot set it.
	Ingest Ingest `json:"ingest,omitzero"`
}

// Ingest is per-connection provenance for a streamed job: which ingest
// path accepted it, the peer address, and a broker-local connection (or
// request) sequence number. Batch-loaded and stdin-streamed jobs leave
// it zero: provenance is recorded only by transports with a real peer
// identity, so the stdin broker path stays byte-identical to batch
// runs.
type Ingest struct {
	// Source names the ingest path: "tcp" or "http".
	Source string `json:"source,omitempty"`
	// Remote is the submitting peer's address, when the transport has
	// one (TCP and HTTP).
	Remote string `json:"remote,omitempty"`
	// ConnID is a broker-local sequence number for the accepting
	// connection (TCP) or request (HTTP), starting at 1.
	ConnID int64 `json:"conn_id,omitempty"`
}

// maxTwoQubitGates is the largest two-qubit gate count a job may
// declare: 2^53, the largest count a float64 holds exactly. The
// fidelity model splits the count across partitions in float64 and
// rounds each share back to an int, which a larger count overflows.
const maxTwoQubitGates = 1 << 53

// Validate checks the job's fields for physical plausibility.
func (j *QJob) Validate() error {
	switch {
	case j.ID == "":
		return fmt.Errorf("job: empty ID")
	case j.NumQubits <= 0:
		return fmt.Errorf("job %s: %d qubits", j.ID, j.NumQubits)
	case j.Depth <= 0:
		return fmt.Errorf("job %s: depth %d", j.ID, j.Depth)
	case j.Shots <= 0:
		return fmt.Errorf("job %s: %d shots", j.ID, j.Shots)
	case j.TwoQubitGates < 0:
		return fmt.Errorf("job %s: %d two-qubit gates", j.ID, j.TwoQubitGates)
	case j.TwoQubitGates > maxTwoQubitGates:
		return fmt.Errorf("job %s: %d two-qubit gates (at most 2^53)", j.ID, j.TwoQubitGates)
	case j.ArrivalTime < 0:
		return fmt.Errorf("job %s: arrival %g", j.ID, j.ArrivalTime)
	}
	return nil
}

// String summarizes the job for logs.
func (j *QJob) String() string {
	return fmt.Sprintf("QJob(%s q=%d d=%d s=%d t2=%d arr=%.1f)",
		j.ID, j.NumQubits, j.Depth, j.Shots, j.TwoQubitGates, j.ArrivalTime)
}

// SyntheticConfig parameterizes the §7 synthetic workload: jobs larger
// than any single QPU but smaller than the cloud (Eq. 1), with uniform
// qubit, depth, and shot ranges and Poisson arrivals.
type SyntheticConfig struct {
	// N is the number of jobs to generate.
	N int `json:"n"`
	// MinQubits and MaxQubits bound the uniform qubit requirement
	// (the paper uses 130 and 250).
	MinQubits int `json:"min_qubits"`
	MaxQubits int `json:"max_qubits"`
	// MinDepth and MaxDepth bound the uniform circuit depth (5, 20).
	MinDepth int `json:"min_depth"`
	MaxDepth int `json:"max_depth"`
	// MinShots and MaxShots bound the uniform shot count (10k, 100k).
	MinShots int `json:"min_shots"`
	MaxShots int `json:"max_shots"`
	// T2Factor sets the two-qubit gate count as a fraction of
	// qubits·depth. Real transpiled circuits place a two-qubit gate on
	// roughly a quarter of the qubit-layer slots; 0.25 is the default.
	T2Factor float64 `json:"t2_factor,omitempty"`
	// MeanInterarrival is the mean of the exponential inter-arrival
	// time in seconds (Poisson arrivals). Zero means all jobs arrive
	// at time 0.
	MeanInterarrival float64 `json:"mean_interarrival,omitempty"`
	// Seed drives the generator.
	Seed int64 `json:"seed"`
}

// DefaultSyntheticConfig returns the case-study workload: 1,000 jobs,
// q ∈ [130,250], depth ∈ [5,20], shots ∈ [10k,100k].
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		N:                1000,
		MinQubits:        130,
		MaxQubits:        250,
		MinDepth:         5,
		MaxDepth:         20,
		MinShots:         10000,
		MaxShots:         100000,
		T2Factor:         0.25,
		MeanInterarrival: 60,
		Seed:             1,
	}
}

func (c SyntheticConfig) validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("job: N = %d", c.N)
	case c.MinQubits <= 0 || c.MaxQubits < c.MinQubits:
		return fmt.Errorf("job: qubit range [%d,%d]", c.MinQubits, c.MaxQubits)
	case c.MinDepth <= 0 || c.MaxDepth < c.MinDepth:
		return fmt.Errorf("job: depth range [%d,%d]", c.MinDepth, c.MaxDepth)
	case c.MinShots <= 0 || c.MaxShots < c.MinShots:
		return fmt.Errorf("job: shots range [%d,%d]", c.MinShots, c.MaxShots)
	case c.T2Factor < 0:
		return fmt.Errorf("job: T2Factor %g", c.T2Factor)
	case c.MeanInterarrival < 0:
		return fmt.Errorf("job: mean interarrival %g", c.MeanInterarrival)
	}
	return nil
}

// Synthetic generates the workload described by the config. Jobs are
// returned in arrival order.
func Synthetic(cfg SyntheticConfig) ([]*QJob, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	uniform := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	jobs := make([]*QJob, 0, cfg.N)
	t := 0.0
	for i := 0; i < cfg.N; i++ {
		if cfg.MeanInterarrival > 0 {
			t += rng.ExpFloat64() * cfg.MeanInterarrival
		}
		q := uniform(cfg.MinQubits, cfg.MaxQubits)
		d := uniform(cfg.MinDepth, cfg.MaxDepth)
		j := &QJob{
			ID:            fmt.Sprintf("job-%04d", i),
			NumQubits:     q,
			Depth:         d,
			Shots:         uniform(cfg.MinShots, cfg.MaxShots),
			TwoQubitGates: int(float64(q*d)*cfg.T2Factor + 0.5),
			ArrivalTime:   t,
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// CheckDistributedConstraint verifies Eq. 1 for every job: each job must
// exceed the largest single device but fit within the cloud's total
// capacity, guaranteeing that all circuits require multi-device
// execution. It returns the first violating job, or nil.
func CheckDistributedConstraint(jobs []*QJob, maxDeviceQubits, totalCloudQubits int) error {
	for _, j := range jobs {
		if j.NumQubits <= maxDeviceQubits {
			return fmt.Errorf("job %s: q=%d fits on a single %d-qubit device (violates Eq. 1 lower bound)",
				j.ID, j.NumQubits, maxDeviceQubits)
		}
		if j.NumQubits >= totalCloudQubits {
			return fmt.Errorf("job %s: q=%d exceeds cloud capacity %d (violates Eq. 1 upper bound)",
				j.ID, j.NumQubits, totalCloudQubits)
		}
	}
	return nil
}

// SortByArrival orders jobs by arrival time (stable; ties keep input
// order), as the JobGenerator requires.
func SortByArrival(jobs []*QJob) {
	sort.SliceStable(jobs, func(i, k int) bool {
		return jobs[i].ArrivalTime < jobs[k].ArrivalTime
	})
}

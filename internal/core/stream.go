package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// StreamRecorder receives job lifecycle notifications from a Broker.
// records.Manager satisfies it (a batch run's rows, kept for the
// aggregates and the CSV export), as does records.ExportRecorder (serve
// mode's -export, each row written as it seals); both run the same
// lifecycle and write the same CSV. Implementations used inside the
// allocation-gated steady state must themselves be allocation-free.
type StreamRecorder interface {
	// Arrival is called when a job is admitted into the broker. The job
	// pointer is owned by the broker for the job's lifetime; recorders
	// must copy what they keep.
	Arrival(j *job.QJob, t float64)
	// Start is called when a job's qubits are reserved and execution
	// begins.
	Start(jobID string, t float64)
	// Finish is called on completion. deviceNames is owned by the
	// broker and only valid for the duration of the call.
	Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string)
	// Drop is called when admission control refuses a job (never
	// admitted; no Arrival was recorded) or sheds a queued one (Arrival
	// was recorded, Start never will be). reason is one of the Drop*
	// constants.
	Drop(j *job.QJob, t float64, reason string)
}

// ManagerRecorder forwards a broker's lifecycle events to a
// records.Manager, which is itself a StreamRecorder; the wrapper stays
// for the callers that name it. Ingest provenance is recorded in
// dedicated columns, which batch-vs-serve record diffs exclude
// explicitly, so a serve-mode broker recording through it writes the
// per-job records of a batch QCloudSimEnv run over the same workload.
type ManagerRecorder struct{ M *records.Manager }

// Arrival implements StreamRecorder.
func (r ManagerRecorder) Arrival(j *job.QJob, t float64) { r.M.Arrival(j, t) }

// Start implements StreamRecorder.
func (r ManagerRecorder) Start(jobID string, t float64) { r.M.Start(jobID, t) }

// Finish implements StreamRecorder.
func (r ManagerRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	r.M.Finish(jobID, finish, fidelity, commTime, deviceNames)
}

// Drop implements StreamRecorder.
func (r ManagerRecorder) Drop(j *job.QJob, t float64, reason string) { r.M.Drop(j, t, reason) }

// MultiRecorder fans lifecycle notifications out to several recorders.
type MultiRecorder []StreamRecorder

// Arrival implements StreamRecorder.
func (m MultiRecorder) Arrival(j *job.QJob, t float64) {
	for _, r := range m {
		r.Arrival(j, t)
	}
}

// Start implements StreamRecorder.
func (m MultiRecorder) Start(jobID string, t float64) {
	for _, r := range m {
		r.Start(jobID, t)
	}
}

// Finish implements StreamRecorder.
func (m MultiRecorder) Finish(jobID string, finish, fidelity, commTime float64, deviceNames []string) {
	for _, r := range m {
		r.Finish(jobID, finish, fidelity, commTime, deviceNames)
	}
}

// Drop implements StreamRecorder.
func (m MultiRecorder) Drop(j *job.QJob, t float64, reason string) {
	for _, r := range m {
		r.Drop(j, t, reason)
	}
}

// AdmissionPolicy names a broker backpressure strategy.
type AdmissionPolicy string

const (
	// AdmitAll disables admission control: every offered job is
	// admitted. This is the default and the only mode the plain Admit
	// entry point uses.
	AdmitAll AdmissionPolicy = ""
	// AdmitReject refuses new jobs while the queue holds MaxQueue
	// admitted-but-unplaced jobs. Refusals carry the RetryAfterS hint.
	AdmitReject AdmissionPolicy = "reject"
	// AdmitShed admits every job but drops the oldest queued job to
	// make room once the queue holds MaxQueue.
	AdmitShed AdmissionPolicy = "shed"
	// AdmitQuota refuses jobs from tenants whose in-flight count
	// (queued + executing) has reached TenantQuota.
	AdmitQuota AdmissionPolicy = "quota"
)

// Drop reasons recorded in lifecycle events and job records.
const (
	// DropQueueFull marks a job refused because the queue was at its
	// depth limit (AdmitReject).
	DropQueueFull = "queue-full"
	// DropShed marks a queued job evicted to admit a newer one
	// (AdmitShed).
	DropShed = "shed"
	// DropTenantQuota marks a job refused because its tenant was at its
	// in-flight quota (AdmitQuota).
	DropTenantQuota = "tenant-quota"
	// DropRateLimit marks a job refused by per-tenant token-bucket rate
	// limiting at the edge.
	DropRateLimit = "rate-limit"
)

// AdmissionConfig parameterizes broker admission control. The zero
// value admits everything.
type AdmissionConfig struct {
	// Policy selects the backpressure strategy.
	Policy AdmissionPolicy `json:"policy,omitempty"`
	// MaxQueue is the queue-depth limit for AdmitReject and AdmitShed.
	MaxQueue int `json:"max_queue,omitempty"`
	// TenantQuota is the per-tenant in-flight limit for AdmitQuota.
	TenantQuota int `json:"tenant_quota,omitempty"`
	// RetryAfterS is the backoff hint attached to refusals, in seconds.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
	// RatePerS enables per-tenant token-bucket rate limiting: each
	// tenant's bucket refills at this many jobs per simulated second.
	// Zero disables rate limiting. The check runs before the queue
	// policy, and — like every admission decision — depends only on
	// deterministic simulation state, so logical-time replays reproduce
	// rate refusals exactly.
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// Burst is the bucket capacity when RatePerS is set; each tenant may
	// submit up to Burst jobs back-to-back before refill paces them.
	Burst float64 `json:"burst,omitempty"`
}

func (c AdmissionConfig) validate() error {
	switch c.Policy {
	case AdmitAll:
		// Limits are ignored without a policy.
	case AdmitReject, AdmitShed:
		if c.MaxQueue <= 0 {
			return fmt.Errorf("core: admission policy %q requires a positive queue limit, got %d", c.Policy, c.MaxQueue)
		}
	case AdmitQuota:
		if c.TenantQuota <= 0 {
			return fmt.Errorf("core: admission policy %q requires a positive tenant quota, got %d", c.Policy, c.TenantQuota)
		}
	default:
		return fmt.Errorf("core: unknown admission policy %q", c.Policy)
	}
	if c.RetryAfterS < 0 {
		return fmt.Errorf("core: negative retry-after %g", c.RetryAfterS)
	}
	if c.RatePerS < 0 {
		return fmt.Errorf("core: negative admission rate %g", c.RatePerS)
	}
	if c.RatePerS > 0 && c.Burst < 1 {
		return fmt.Errorf("core: admission rate limiting requires a burst of at least 1, got %g", c.Burst)
	}
	if c.Burst > 0 && c.RatePerS == 0 {
		return fmt.Errorf("core: admission burst %g without a rate", c.Burst)
	}
	return nil
}

// AdmissionStats counts admission-control decisions over the broker's
// lifetime, surfaced through /v1/metrics and checkpoints.
type AdmissionStats struct {
	// RejectedQueueFull counts jobs refused at the queue-depth limit.
	RejectedQueueFull int `json:"rejected_queue_full"`
	// RejectedQuota counts jobs refused at their tenant's quota.
	RejectedQuota int `json:"rejected_tenant_quota"`
	// RejectedRate counts jobs refused by token-bucket rate limiting.
	RejectedRate int `json:"rejected_rate_limit"`
	// Shed counts queued jobs evicted to admit newer ones.
	Shed int `json:"shed"`
}

// Decision reports one admission-control outcome from Offer.
type Decision struct {
	// Admitted is true when the job entered the broker.
	Admitted bool
	// Reason is the refusal reason (DropQueueFull or DropTenantQuota)
	// when Admitted is false.
	Reason string
	// RetryAfterS is the configured client backoff hint on refusals.
	RetryAfterS float64
	// ShedJobID names the queued job dropped to make room, when the
	// shed policy evicted one.
	ShedJobID string
}

// pendingJob is one admitted-but-unplaced job plus its admission time
// (which can differ from the job's nominal ArrivalTime when a stream
// delivers late).
type pendingJob struct {
	j       *job.QJob
	arrival float64
}

// Broker is the scheduling engine: jobs are injected one at a time
// (Admit) — by QCloudSimEnv at their arrival times in batch runs, or as
// an external stream delivers them in serve mode — the discrete-event
// core advances in logical, real or scaled time, and completions feed
// rolling-window metrics. The job lifecycle is a chain of AfterFunc
// callbacks, and every per-job working set lives in a recycled run
// pool, so the steady-state admit→schedule→complete cycle performs zero
// heap allocations (gated by AllocsPerRun in tests and CI).
type Broker struct {
	env     *sim.Environment
	devices []*device.Device
	pol     policy.Policy
	cfg     Config
	rec     StreamRecorder
	windows *metrics.TenantWindows

	// pending[head:] is the queue of admitted-but-unplaced jobs, oldest
	// first. Every other slot up to cap(pending) is the zero value, so
	// the backing array keeps no placed or shed job reachable.
	pending []pendingJob
	head    int
	runPool []*jobRun
	states  []policy.DeviceState

	// ranks are the fleet's ErrorRanks, computed by policy.RankByError
	// from the ErrorScores in rankedScores (NaN before the first
	// snapshot). statesInto re-ranks when any score differs from them.
	ranks        []int
	rankedScores []float64

	// refused[q] records that the policy refused a q-qubit job under a
	// snapshot the current one has only shrunk from; nil unless the
	// policy is a policy.SizeRule. memoFree and memoRank hold each
	// device's Free and ErrorRank from the previous dispatch pass; a
	// device's Capacity, the rule's third input, never changes.
	refused  []bool
	memoFree []int
	memoRank []int

	admission AdmissionConfig
	admStats  AdmissionStats
	inflight  map[string]int // per-tenant queued+executing counts
	buckets   map[string]*rateBucket

	admitted, finished int
	active             int

	// Calibration drift (see DriftConfig); driftRNG is nil when it is
	// off. driftArmed reports a driftTick timer in the event heap.
	driftRNG    *rand.Rand
	driftSteps  int
	driftNext   float64
	driftArmed  bool
	driftTickFn func()
}

// jobRun is the recycled per-job working set: allocation copies, device
// grants, name list, fidelity scratch, and the pre-bound timer
// callbacks that drive the execute→communicate→complete chain.
type jobRun struct {
	br       *Broker
	j        *job.QJob
	arrival  float64
	start    float64
	commTime float64
	allocs   []policy.Allocation
	grants   []device.Allocation
	devNames []string
	fids     []float64
	qubits   []int
	procFn   func()
	commFn   func()
}

// NewBroker assembles a streaming broker over the given fleet. The
// recorder receives every lifecycle event; windowCap sizes the rolling
// metrics windows (per tenant and global). Drift, when cfg enables it,
// follows DriftConfig, its first step due one interval from now.
func NewBroker(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg Config, rec StreamRecorder, windowCap int) (*Broker, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("core: empty device fleet")
	}
	if pol == nil {
		return nil, fmt.Errorf("core: nil policy")
	}
	if rec == nil {
		return nil, fmt.Errorf("core: nil recorder")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if windowCap <= 0 {
		return nil, fmt.Errorf("core: window capacity %d", windowCap)
	}
	b := &Broker{
		env:          env,
		devices:      fleet,
		pol:          pol,
		cfg:          cfg,
		rec:          rec,
		windows:      metrics.NewTenantWindows(windowCap),
		states:       make([]policy.DeviceState, len(fleet)),
		ranks:        make([]int, len(fleet)),
		rankedScores: make([]float64, len(fleet)),
		inflight:     make(map[string]int),
	}
	for i := range b.rankedScores {
		b.rankedScores[i] = math.NaN()
	}
	if _, ok := pol.(policy.SizeRule); ok {
		b.refused = make([]bool, device.TotalCapacity(fleet)+1)
		b.memoFree = make([]int, len(fleet))
		b.memoRank = make([]int, len(fleet))
	}
	if d := cfg.Drift; d.Enabled() {
		b.driftRNG = rand.New(rand.NewSource(d.Seed))
		b.driftNext = env.Now() + d.IntervalS
		b.driftTickFn = b.driftTick
	}
	return b, nil
}

// SetAdmission installs an admission-control policy. Call it before the
// first Offer; changing policies mid-stream is allowed but counters are
// not reset.
func (b *Broker) SetAdmission(cfg AdmissionConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	b.admission = cfg
	if cfg.RatePerS > 0 && b.buckets == nil {
		b.buckets = make(map[string]*rateBucket)
	}
	return nil
}

// rateBucket is one tenant's token bucket, refilled lazily at each
// Offer from the simulation clock — logical-time replays therefore
// reproduce every refill exactly.
type rateBucket struct {
	tokens float64
	last   float64
}

// bucket returns the tenant's token bucket, creating it brim-full on
// first sight. Unannotated on purpose: creation happens once per
// tenant, outside the allocation-gated steady state.
func (b *Broker) bucket(key string) *rateBucket {
	bk := b.buckets[key]
	if bk == nil {
		bk = &rateBucket{tokens: b.admission.Burst, last: b.env.Now()}
		b.buckets[key] = bk
	}
	return bk
}

// AdmissionCounters returns the admission-control decision counts.
func (b *Broker) AdmissionCounters() AdmissionStats { return b.admStats }

// Devices returns the broker's fleet, for status introspection.
func (b *Broker) Devices() []*device.Device { return b.devices }

// TenantInFlight returns the tenant's current queued+executing count.
// The empty tenant maps to metrics.DefaultTenant, matching the window
// naming.
func (b *Broker) TenantInFlight(tenant string) int {
	return b.inflight[tenantKey(tenant)]
}

func tenantKey(tenant string) string {
	if tenant == "" {
		return metrics.DefaultTenant
	}
	return tenant
}

// Env returns the simulation environment the broker advances.
func (b *Broker) Env() *sim.Environment { return b.env }

// Windows returns the rolling latency/throughput windows.
func (b *Broker) Windows() *metrics.TenantWindows { return b.windows }

// Policy returns the active allocation policy.
func (b *Broker) Policy() policy.Policy { return b.pol }

// QueueDepth returns the number of admitted jobs waiting for placement.
func (b *Broker) QueueDepth() int { return len(b.pending) - b.head }

// Active returns the number of jobs currently executing.
func (b *Broker) Active() int { return b.active }

// Admitted returns the total jobs admitted over the broker's lifetime
// (including jobs admitted before a checkpoint it was restored from).
func (b *Broker) Admitted() int { return b.admitted }

// Finished returns the total completed jobs over the broker's lifetime.
func (b *Broker) Finished() int { return b.finished }

// Quiescent reports whether no job is executing or awaiting placement —
// the state in which a checkpoint can be taken.
func (b *Broker) Quiescent() bool { return b.active == 0 && b.QueueDepth() == 0 }

// Admit injects one job into the broker at the current simulation time,
// bypassing admission control. The caller (the serve loop) is
// responsible for advancing the clock to the job's arrival time first;
// a job delivered late is admitted at the current time. Admission order
// must follow the stream order.
//
//repro:noalloc
func (b *Broker) Admit(j *job.QJob) {
	if b.driftRNG != nil && !b.driftArmed {
		b.wakeDrift()
	}
	now := b.env.Now()
	b.admitted++
	b.inflight[tenantKey(j.Tenant)]++
	b.rec.Arrival(j, now)
	b.pending = append(b.pending, pendingJob{j: j, arrival: now})
	b.dispatch()
}

// Offer submits one job through admission control. Decisions depend
// only on deterministic simulation state (queue depth and per-tenant
// in-flight counts at the current simulation time), so a logical-time
// replay of the same stream reproduces them exactly. Refused and shed
// jobs are recorded as Drop lifecycle events and never reach the
// scheduler. With no admission policy configured, Offer is equivalent
// to Admit.
//
//repro:noalloc
func (b *Broker) Offer(j *job.QJob) Decision {
	now := b.env.Now()
	d := Decision{Admitted: true}
	if rate := b.admission.RatePerS; rate > 0 {
		bk := b.bucket(tenantKey(j.Tenant))
		bk.tokens = math.Min(b.admission.Burst, bk.tokens+(now-bk.last)*rate)
		bk.last = now
		if bk.tokens < 1 {
			b.admStats.RejectedRate++
			b.rec.Drop(j, now, DropRateLimit)
			// The deterministic time until the bucket holds one token:
			// an honest Retry-After instead of a static hint.
			return Decision{Reason: DropRateLimit, RetryAfterS: (1 - bk.tokens) / rate}
		}
		bk.tokens--
	}
	switch b.admission.Policy {
	case AdmitReject:
		if b.QueueDepth() >= b.admission.MaxQueue {
			b.admStats.RejectedQueueFull++
			b.rec.Drop(j, now, DropQueueFull)
			return Decision{Reason: DropQueueFull, RetryAfterS: b.admission.RetryAfterS}
		}
	case AdmitShed:
		if b.QueueDepth() >= b.admission.MaxQueue {
			shed := b.pending[b.head]
			b.removePending(0)
			b.inflight[tenantKey(shed.j.Tenant)]--
			b.admStats.Shed++
			b.rec.Drop(shed.j, now, DropShed)
			d.ShedJobID = shed.j.ID
		}
	case AdmitQuota:
		if b.inflight[tenantKey(j.Tenant)] >= b.admission.TenantQuota {
			b.admStats.RejectedQuota++
			b.rec.Drop(j, now, DropTenantQuota)
			return Decision{Reason: DropTenantQuota, RetryAfterS: b.admission.RetryAfterS}
		}
	}
	b.Admit(j)
	return d
}

// statesInto snapshots the fleet for a policy decision into the broker's
// reusable buffer. Every field is O(1) per device: the mean error rates
// come from the device's calibration cache, and the error ranks from
// the broker's, which is rebuilt only when a calibration has changed a
// score (at construction, after a drift step, after a restore).
//
//repro:noalloc
func (b *Broker) statesInto() []policy.DeviceState {
	out := b.states[:len(b.devices)]
	stale := false
	for i, d := range b.devices {
		eps1Q, eps2Q, epsRO := d.MeanErrors()
		score := d.ErrorScore()
		stale = stale || score != b.rankedScores[i]
		out[i] = policy.DeviceState{
			Index:       i,
			Name:        d.Name(),
			Free:        d.FreeQubits(),
			Capacity:    d.NumQubits(),
			ErrorScore:  score,
			ErrorRank:   b.ranks[i],
			CLOPS:       d.CLOPS(),
			Utilization: d.Utilization(),
			Eps1Q:       eps1Q,
			Eps2Q:       eps2Q,
			EpsRO:       epsRO,
		}
	}
	if stale {
		policy.RankByError(out)
		for i := range out {
			b.ranks[i] = out[i].ErrorRank
			b.rankedScores[i] = out[i].ErrorScore
		}
	}
	return out
}

// dispatch places pending jobs until no further placement is possible.
// In FIFO mode (default) only the head job is considered, so a blocked
// head blocks the queue — keeping ordering fair across all policies. In
// backfill mode later jobs that fit may skip ahead of a blocked head.
// dispatch runs on every admission and every qubit release.
//
// Each pass takes one fleet snapshot: neither the clock nor any device
// changes between decisions until a placement, which restarts the pass.
// A job larger than the fleet's free qubits is skipped without asking
// the policy, whose contract forces nil there. Under a policy.SizeRule
// policy, so is a job whose size the policy already refused (see
// forgetRefusals).
//
//repro:noalloc
func (b *Broker) dispatch() {
	for b.QueueDepth() > 0 {
		placedAny := false
		states := b.statesInto()
		b.forgetRefusals(states)
		free := device.TotalFree(b.devices)
		for idx, pj := range b.pending[b.head:] {
			var allocs []policy.Allocation
			// A SizeRule table covers sizes 0..capacity, so it holds
			// every q that fits the free qubits but a negative one.
			q := pj.j.NumQubits
			memo := uint(q) < uint(len(b.refused))
			if q <= free && !(memo && b.refused[q]) {
				allocs = b.pol.Allocate(pj.j, states)
				if allocs == nil && memo {
					b.refused[q] = true
				}
			}
			if allocs != nil {
				if err := policy.Validate(pj.j, states, allocs); err != nil {
					panic(fmt.Sprintf("core: policy %q produced invalid allocation: %v", b.pol.Name(), err))
				}
				b.removePending(idx)
				b.start(pj, allocs)
				placedAny = true
				break
			}
			if !b.cfg.Backfill {
				break
			}
		}
		if !placedAny {
			return
		}
	}
}

// forgetRefusals clears the refused-by-size table when a device's Free
// grew or a rank changed since the previous pass. It reads the snapshot, not the events that changed it,
// so releases, drift steps, restores and qubits released behind the
// broker's back all count. A refusal made under a larger snapshot
// still holds under this one, as policy.SizeRule promises.
//
//repro:noalloc
func (b *Broker) forgetRefusals(states []policy.DeviceState) {
	if b.refused == nil {
		return
	}
	stale := false
	for i := range states {
		s := &states[i]
		stale = stale || s.Free > b.memoFree[i] || s.ErrorRank != b.memoRank[i]
		b.memoFree[i], b.memoRank[i] = s.Free, s.ErrorRank
	}
	if stale {
		clear(b.refused)
	}
}

// removePending takes the idx-th queued job (0 is the head) out of the
// queue and zeroes every slot it vacates. A head pop only advances head,
// and once the dead prefix passes half the slice the live window moves
// to the front: each compaction copies fewer jobs than were popped since
// the last, so a FIFO pop costs amortised O(1). A removal behind the
// head (backfill) shifts the tail, O(n) like the scan that found it.
//
//repro:noalloc
func (b *Broker) removePending(idx int) {
	if idx == 0 {
		b.pending[b.head] = pendingJob{}
		b.head++
	} else {
		i, last := b.head+idx, len(b.pending)-1
		copy(b.pending[i:], b.pending[i+1:])
		b.pending[last] = pendingJob{}
		b.pending = b.pending[:last]
	}
	if 2*b.head > len(b.pending) {
		n := copy(b.pending, b.pending[b.head:])
		clear(b.pending[n:])
		b.pending = b.pending[:n]
		b.head = 0
	}
}

// getRun pops a recycled run or builds a fresh one (pool warm-up only).
func (b *Broker) getRun() *jobRun {
	if n := len(b.runPool); n > 0 {
		jr := b.runPool[n-1]
		b.runPool[n-1] = nil
		b.runPool = b.runPool[:n-1]
		return jr
	}
	nd := len(b.devices)
	jr := &jobRun{
		br:       b,
		allocs:   make([]policy.Allocation, 0, nd),
		grants:   make([]device.Allocation, nd),
		devNames: make([]string, 0, nd),
		fids:     make([]float64, 0, nd),
		qubits:   make([]int, 0, nd),
	}
	jr.procFn = jr.onProcessed
	jr.commFn = jr.finish
	return jr
}

// start reserves qubits and schedules the job's completion chain —
// Algorithm 1 lines 6–14 in callback form. The parallel sub-jobs
// complete at start + max τ_i (T = max T_i); the chained communication
// timer then finishes the job at (start+maxProc)+comm. Reservation is
// synchronous: the policy guaranteed feasibility and no simulation time
// passes between decision and reservation.
//
//repro:noalloc
func (b *Broker) start(pj pendingJob, allocs []policy.Allocation) {
	jr := b.getRun()
	jr.j = pj.j
	jr.arrival = pj.arrival
	jr.start = b.env.Now()
	jr.allocs = append(jr.allocs[:0], allocs...)
	if cap(jr.grants) < len(allocs) {
		//lint:allow alloclint pool warm-up: runs once per fleet-size increase, never in steady state
		jr.grants = make([]device.Allocation, len(allocs))
	}
	jr.grants = jr.grants[:len(allocs)]
	jr.devNames = jr.devNames[:0]
	maxProc := math.Inf(-1)
	for i, a := range allocs {
		d := b.devices[a.DeviceIndex]
		if err := d.AllocateInto(a.Qubits, &jr.grants[i]); err != nil {
			panic(fmt.Sprintf("core: reservation failed after validation: %v", err))
		}
		jr.devNames = append(jr.devNames, d.Name())
		if pt := d.ProcessTime(b.cfg.M, b.cfg.K, pj.j.Shots); pt > maxProc {
			maxProc = pt
		}
	}
	b.rec.Start(pj.j.ID, jr.start)
	b.active++
	jr.commTime = metrics.CommunicationTime(pj.j.NumQubits, b.cfg.Lambda, len(allocs))
	b.env.AfterFunc(maxProc, jr.procFn)
}

// onProcessed fires when the slowest partition finishes; blocking
// classical communication across the k-1 links follows (Eq. 9).
//
//repro:noalloc
func (jr *jobRun) onProcessed() {
	if jr.commTime > 0 {
		jr.br.env.AfterFunc(jr.commTime, jr.commFn)
		return
	}
	jr.finish()
}

// finish computes fidelity, releases the reservations, records the
// completion, and re-dispatches.
//
//repro:noalloc
func (jr *jobRun) finish() {
	b := jr.br
	now := b.env.Now()
	fidelity := jr.fidelity()
	for i := range jr.grants {
		if err := jr.grants[i].Device.ReleaseDirect(&jr.grants[i]); err != nil {
			panic(fmt.Sprintf("core: release failed: %v", err))
		}
	}
	b.rec.Finish(jr.j.ID, now, fidelity, jr.commTime, jr.devNames)
	b.windows.Observe(jr.j.Tenant, metrics.WindowSample{
		Finish:     now,
		Wait:       jr.start - jr.arrival,
		Turnaround: now - jr.arrival,
	})
	b.active--
	b.finished++
	b.inflight[tenantKey(jr.j.Tenant)]--
	jr.j = nil
	b.runPool = append(b.runPool, jr)
	b.dispatch()
}

// fidelity computes the job's final fidelity from per-partition
// fidelities (Eqs. 4–8) using the run's scratch buffers. Two-qubit
// gates are attributed to partitions in proportion to their qubit
// share.
//
//repro:noalloc
func (jr *jobRun) fidelity() float64 {
	b := jr.br
	j := jr.j
	fids := jr.fids[:0]
	qubits := jr.qubits[:0]
	for _, a := range jr.allocs {
		eps1Q, eps2Q, epsRO := b.devices[a.DeviceIndex].MeanErrors()
		t2i := int(math.Round(float64(j.TwoQubitGates) * float64(a.Qubits) / float64(j.NumQubits)))
		fids = append(fids, metrics.PartitionFidelity(eps1Q, eps2Q, epsRO, j.Depth, a.Qubits, t2i))
		qubits = append(qubits, a.Qubits)
	}
	jr.fids, jr.qubits = fids, qubits
	return metrics.FinalFidelity(fids, qubits, b.cfg.Phi)
}

// Drain runs the event core to exhaustion and returns the final
// simulation time. It errors if admitted jobs remain unplaceable; batch
// runs (QCloudSimEnv.Run) check completeness through it too.
func (b *Broker) Drain() (float64, error) {
	end := b.env.Run()
	if n := b.QueueDepth(); n > 0 {
		return end, fmt.Errorf("core: %d admitted jobs unplaceable under policy %q", n, b.pol.Name())
	}
	return end, nil
}

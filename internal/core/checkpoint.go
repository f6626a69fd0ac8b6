package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CheckpointVersion is the current checkpoint schema version.
const CheckpointVersion = 1

// PolicyCheckpointer is implemented by policies with internal state that
// must survive a broker checkpoint/resume cycle (e.g. the RL policy's
// sampling RNG position). Stateless policies need not implement it.
type PolicyCheckpointer interface {
	// CheckpointState serializes the policy's resumable state.
	CheckpointState() ([]byte, error)
	// RestoreState reinstates state produced by CheckpointState.
	RestoreState(data []byte) error
}

// DeviceCheckpoint is one device's resumable bookkeeping: the
// utilization integral that feeds utilization-aware policies, and the
// sub-job counter.
type DeviceCheckpoint struct {
	Name     string  `json:"name"`
	BusyTime float64 `json:"busy_time"`
	LastT    float64 `json:"last_t"`
	JobsRun  int     `json:"jobs_run"`
}

// RateBucketCheckpoint is one tenant's resumable token-bucket state.
type RateBucketCheckpoint struct {
	Tenant string  `json:"tenant"`
	Tokens float64 `json:"tokens"`
	Last   float64 `json:"last"`
}

// Checkpoint is a snapshot of a quiescent broker: nothing queued and
// nothing running, so every admitted job is finished or shed. A fresh
// broker constructed over an idle fleet at NewEnvironmentAt(SimNow) and
// restored from it continues the stream exactly where the checkpointed
// one stopped.
type Checkpoint struct {
	Version     int                `json:"version"`
	SimNow      float64            `json:"sim_now"`
	Policy      string             `json:"policy"`
	Admitted    int                `json:"jobs_admitted"`
	Finished    int                `json:"jobs_finished"`
	Devices     []DeviceCheckpoint `json:"devices"`
	PolicyState json.RawMessage    `json:"policy_state,omitempty"`
	Admission   AdmissionStats     `json:"admission,omitzero"`
	// RateBuckets carries per-tenant token-bucket state, sorted by
	// tenant so the encoding is deterministic.
	RateBuckets []RateBucketCheckpoint `json:"rate_buckets,omitempty"`
	// DriftSteps and DriftNext are the calibration-drift position: the
	// steps taken so far and the due time of the next one. Restore
	// replays the steps on the fresh fleet. Both stay zero without drift.
	DriftSteps int     `json:"drift_steps,omitempty"`
	DriftNext  float64 `json:"drift_next,omitempty"`
	// Ingested is the serving layer's durable stream position: how many
	// stream lines are fully covered by this checkpoint. The broker
	// leaves it zero; every logical-time serve run stamps it, and a
	// -resume run fed the same stream skips that many lines.
	Ingested int64 `json:"ingested,omitempty"`
	// ExportLen is the length in bytes of the serving layer's -export
	// file when this checkpoint was written, every row sealed by then
	// flushed to it. A -resume run cuts the file back to it and
	// appends; zero (no -export, or a checkpoint from an older binary)
	// starts a new file.
	ExportLen int64 `json:"export_len,omitempty"`
	// Jobs carries the serving layer's JobIndex snapshot when one is
	// attached. The broker itself does not own a JobIndex, so
	// Broker.Checkpoint leaves it nil and the serve loop fills it in.
	Jobs *JobIndexCheckpoint `json:"jobs,omitempty"`
}

// Checkpoint snapshots the broker. It fails unless the broker is
// Quiescent: queued jobs and in-flight reservations are not part of the
// schema, so the serve loop checkpoints only at quiescent points.
func (b *Broker) Checkpoint() (*Checkpoint, error) {
	if !b.Quiescent() {
		return nil, fmt.Errorf("core: checkpoint requires a quiescent broker, %d jobs queued and %d active", b.QueueDepth(), b.active)
	}
	cp := &Checkpoint{
		Version:   CheckpointVersion,
		SimNow:    b.env.Now(),
		Policy:    b.pol.Name(),
		Admitted:  b.admitted,
		Finished:  b.finished,
		Admission: b.admStats,
	}
	if b.driftRNG != nil {
		cp.DriftSteps, cp.DriftNext = b.driftSteps, b.driftNext
	}
	if len(b.buckets) > 0 {
		keys := make([]string, 0, len(b.buckets))
		for k := range b.buckets { //lint:allow detlint collect-then-sort: the sort below fixes the order before anything observes it
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bk := b.buckets[k]
			cp.RateBuckets = append(cp.RateBuckets, RateBucketCheckpoint{Tenant: k, Tokens: bk.tokens, Last: bk.last})
		}
	}
	for _, d := range b.devices {
		busy, last, runs := d.UtilizationState()
		cp.Devices = append(cp.Devices, DeviceCheckpoint{
			Name: d.Name(), BusyTime: busy, LastT: last, JobsRun: runs,
		})
	}
	if pc, ok := b.pol.(PolicyCheckpointer); ok {
		state, err := pc.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("core: checkpointing policy %q: %w", b.pol.Name(), err)
		}
		cp.PolicyState = state
	}
	return cp, nil
}

// Restore reinstates a checkpoint into a freshly constructed broker. The
// broker's environment must have been created with
// NewEnvironmentAt(cp.SimNow) and its fleet must be idle and match the
// checkpointed device names. Drift steps are replayed on the fleet.
// Restore admits no job, so the broker's recorder hears nothing of it.
func (b *Broker) Restore(cp *Checkpoint) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if b.admitted != 0 || b.finished != 0 || b.active != 0 || b.QueueDepth() != 0 {
		return fmt.Errorf("core: restore requires a fresh broker")
	}
	if now := b.env.Now(); now != cp.SimNow {
		return fmt.Errorf("core: environment clock %g, checkpoint taken at %g (use sim.NewEnvironmentAt)", now, cp.SimNow)
	}
	if got := b.pol.Name(); got != cp.Policy {
		return fmt.Errorf("core: checkpoint for policy %q, broker runs %q", cp.Policy, got)
	}
	if err := b.checkDriftPosition(cp); err != nil {
		return err
	}
	for i := 1; i < len(cp.RateBuckets); i++ {
		if cp.RateBuckets[i-1].Tenant >= cp.RateBuckets[i].Tenant {
			return fmt.Errorf("core: rate buckets not sorted by tenant at %q", cp.RateBuckets[i].Tenant)
		}
	}
	if len(cp.Devices) != len(b.devices) {
		return fmt.Errorf("core: checkpoint has %d devices, fleet has %d", len(cp.Devices), len(b.devices))
	}
	for i, dc := range cp.Devices {
		d := b.devices[i]
		if d.Name() != dc.Name {
			return fmt.Errorf("core: device %d is %q, checkpoint expects %q", i, d.Name(), dc.Name)
		}
		if d.FreeQubits() != d.NumQubits() {
			return fmt.Errorf("core: device %q not idle at restore", d.Name())
		}
	}
	if cp.PolicyState != nil {
		pc, ok := b.pol.(PolicyCheckpointer)
		if !ok {
			return fmt.Errorf("core: checkpoint carries state for policy %q but it cannot restore state", cp.Policy)
		}
		if err := pc.RestoreState(cp.PolicyState); err != nil {
			return fmt.Errorf("core: restoring policy %q: %w", cp.Policy, err)
		}
	}
	for i, dc := range cp.Devices {
		b.devices[i].RestoreUtilizationState(dc.BusyTime, dc.LastT, dc.JobsRun)
	}
	if b.driftRNG != nil {
		for b.driftSteps < cp.DriftSteps {
			b.stepDrift()
		}
		b.driftNext = cp.DriftNext
	}
	b.admitted = cp.Admitted
	b.finished = cp.Finished
	b.admStats = cp.Admission
	for _, rb := range cp.RateBuckets {
		if b.buckets == nil {
			b.buckets = make(map[string]*rateBucket)
		}
		b.buckets[rb.Tenant] = &rateBucket{tokens: rb.Tokens, last: rb.Last}
	}
	return nil
}

// checkDriftPosition refuses drift state where drift is off, and a
// position no run from time zero on can reach: at most one step per
// interval, the next due within one interval of the checkpoint.
func (b *Broker) checkDriftPosition(cp *Checkpoint) error {
	d := b.cfg.Drift
	switch {
	case b.driftRNG == nil && (cp.DriftSteps != 0 || cp.DriftNext != 0):
		return fmt.Errorf("core: checkpoint carries %d calibration drift steps, but the broker's drift is off", cp.DriftSteps)
	case b.driftRNG == nil:
		return nil
	case cp.DriftNext == 0:
		return fmt.Errorf("core: checkpoint has no calibration drift position, but the broker drifts")
	case cp.DriftSteps < 0 || cp.DriftNext < 0 || cp.DriftNext > cp.SimNow+d.IntervalS ||
		float64(cp.DriftSteps) > cp.DriftNext/d.IntervalS:
		return fmt.Errorf("core: checkpoint drift position (%d steps, next at %g) impossible at %g with interval %g",
			cp.DriftSteps, cp.DriftNext, cp.SimNow, d.IntervalS)
	}
	return nil
}

// Encode writes the checkpoint as one line of compact JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(cp)
}

// DecodeCheckpoint reads a checkpoint written by Encode, or the indented
// form earlier versions wrote: the schema is the same.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return &cp, nil
}

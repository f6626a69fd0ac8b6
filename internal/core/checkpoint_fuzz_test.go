package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// fuzzDriftSpan and fuzzMaxShots bound the drift work one fuzz input
// may ask for. A drifting broker takes one step per interval its run
// covers, so restoring a checkpoint replays one step per interval
// before it, and a restored job keeps the broker stepping for as long
// as it executes, which grows with its shot count.
const (
	fuzzDriftSpan = 10000
	fuzzMaxShots  = 10_000_000
)

// costlyDrift reports whether cp would make a drifting broker step
// more than the fuzz bounds allow.
func costlyDrift(cp *Checkpoint, d DriftConfig) bool {
	if cp.SimNow > fuzzDriftSpan*d.IntervalS {
		return true
	}
	for _, p := range cp.Pending {
		if p.Job.Shots > fuzzMaxShots {
			return true
		}
	}
	return false
}

// restoreRoundTrip restores cp into a fresh speed-policy broker over
// the standard fleet, drains whatever Restore dispatched, and returns
// the broker's checkpoint. The serving layer's fields (Ingested, Jobs)
// ride along untouched, as the serve loop carries them.
func restoreRoundTrip(t *testing.T, cfg Config, cp *Checkpoint) (*Checkpoint, error) {
	t.Helper()
	env := sim.NewEnvironmentAt(cp.SimNow)
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(env, fleet, policy.Speed{}, cfg, ManagerRecorder{M: records.NewManager()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err != nil {
		return nil, err
	}
	if b.Active() > 0 {
		b.Drain() //lint:allow errlint jobs left unplaceable stay pending in the checkpoint, which is what is compared
	}
	got, err := b.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after a drained restore: %v", err)
	}
	got.Ingested, got.Jobs = cp.Ingested, cp.Jobs
	return got, nil
}

func encodeCheckpoint(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpoint feeds arbitrary bytes to DecodeCheckpoint and restores
// each decoded checkpoint into a fresh broker, with drift off and on. No
// input may panic. A checkpoint without pending jobs is a fixed point of
// Restore → Checkpoint → Encode. Restore re-dispatches pending jobs, so
// a checkpoint with some reaches its fixed point after one round.
func FuzzCheckpoint(f *testing.F) {
	drifting := DefaultConfig()
	drifting.Drift = DriftConfig{IntervalS: 700, Rel: 0.3, Seed: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, cfg := range []Config{DefaultConfig(), drifting} {
			if cfg.Drift.Enabled() && costlyDrift(cp, cfg.Drift) {
				continue
			}
			got, err := restoreRoundTrip(t, cfg, cp)
			if err != nil {
				continue
			}
			first := encodeCheckpoint(t, got)
			if len(cp.Pending) == 0 && !bytes.Equal(first, encodeCheckpoint(t, cp)) {
				t.Fatalf("restore → checkpoint changed the checkpoint (drift %v):\nin:\n%s\nout:\n%s",
					cfg.Drift.Enabled(), encodeCheckpoint(t, cp), first)
			}
			again, err := DecodeCheckpoint(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-decoding an encoded checkpoint: %v", err)
			}
			second, err := restoreRoundTrip(t, cfg, again)
			if err != nil {
				t.Fatalf("round-tripped checkpoint refused (drift %v): %v\n%s", cfg.Drift.Enabled(), err, first)
			}
			if out := encodeCheckpoint(t, second); !bytes.Equal(out, first) {
				t.Fatalf("checkpoint not a fixed point after one round (drift %v):\nfirst:\n%s\nsecond:\n%s",
					cfg.Drift.Enabled(), first, out)
			}
		}
	})
}

// Restore refuses checkpoints no broker writes: a malformed or repeated
// pending job (a repeated ID would panic the records manager's
// duplicate-arrival check), and rate buckets out of tenant order (the
// next checkpoint would sort them, so the round trip would not be the
// identity).
func TestRestoreRefusesMalformedCheckpoint(t *testing.T) {
	pending := func(id string, qubits int) CheckpointPending {
		return CheckpointPending{Job: job.QJob{ID: id, NumQubits: qubits, Depth: 5, Shots: 100}}
	}
	cases := []struct {
		name    string
		edit    func(cp *Checkpoint)
		wantErr string
	}{
		{"zero-qubit pending job", func(cp *Checkpoint) { cp.Pending = []CheckpointPending{pending("a", 0)} }, "0 qubits"},
		{"pending job listed twice", func(cp *Checkpoint) {
			cp.Pending = []CheckpointPending{pending("a", 5000), pending("a", 5000)}
		}, "listed twice"},
		{"rate buckets out of order", func(cp *Checkpoint) {
			cp.RateBuckets = []RateBucketCheckpoint{{Tenant: "zeta"}, {Tenant: "acme"}}
		}, "not sorted"},
	}
	fleet, err := device.StandardFleet(sim.NewEnvironment(), 2025)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cp := &Checkpoint{Version: CheckpointVersion, Policy: "speed"}
			for _, d := range fleet {
				cp.Devices = append(cp.Devices, DeviceCheckpoint{Name: d.Name()})
			}
			c.edit(cp)
			if _, err := restoreRoundTrip(t, DefaultConfig(), cp); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Restore error %v, want %q", err, c.wantErr)
			}
		})
	}
}

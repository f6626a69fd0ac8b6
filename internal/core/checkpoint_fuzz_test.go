package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// fuzzDriftSpan bounds the drift work one fuzz input may ask for: a
// drifting broker takes one step per interval its run covers, so
// restoring a checkpoint replays one step per interval before it.
const fuzzDriftSpan = 10000

// costlyDrift reports whether cp would make a drifting broker step
// more than the fuzz bound allows.
func costlyDrift(cp *Checkpoint, d DriftConfig) bool {
	return cp.SimNow > fuzzDriftSpan*d.IntervalS
}

// restoreRoundTrip restores cp into a fresh speed-policy broker over
// the standard fleet and returns the broker's checkpoint. The serving
// layer's fields (Ingested, ExportLen, Jobs) ride along untouched, as
// the serve loop carries them.
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
	got, err := b.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after a restore: %v", err)
	}
	got.Ingested, got.ExportLen, got.Jobs = cp.Ingested, cp.ExportLen, cp.Jobs
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
// input may panic. A checkpoint is a quiescent broker, so every one
// Restore accepts is a fixed point of Restore → Checkpoint → Encode on
// the first round.
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
			if in, out := encodeCheckpoint(t, cp), encodeCheckpoint(t, got); !bytes.Equal(in, out) {
				t.Fatalf("restore → checkpoint changed the checkpoint (drift %v):\nin:\n%s\nout:\n%s",
					cfg.Drift.Enabled(), in, out)
			}
		}
	})
}

// Restore refuses rate buckets out of tenant order (the next checkpoint
// would sort them, so the round trip would not be the identity), and
// DecodeCheckpoint refuses a queued-job snapshot: a checkpoint is a
// quiescent broker, and the schema has no such field.
func TestRestoreRefusesMalformedCheckpoint(t *testing.T) {
	fleet, err := device.StandardFleet(sim.NewEnvironment(), 2025)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Version: CheckpointVersion, Policy: "speed"}
	for _, d := range fleet {
		cp.Devices = append(cp.Devices, DeviceCheckpoint{Name: d.Name()})
	}
	t.Run("rate buckets out of order", func(t *testing.T) {
		bad := *cp
		bad.RateBuckets = []RateBucketCheckpoint{{Tenant: "zeta"}, {Tenant: "acme"}}
		if _, err := restoreRoundTrip(t, DefaultConfig(), &bad); err == nil || !strings.Contains(err.Error(), "not sorted") {
			t.Fatalf("Restore error %v, want %q", err, "not sorted")
		}
	})
	t.Run("pending key", func(t *testing.T) {
		data := encodeCheckpoint(t, cp)
		data = bytes.Replace(data, []byte(`"devices":`),
			[]byte(`"pending":[{"arrival":0,"job":{"job_id":"a","num_qubits":5,"depth":5,"num_shots":100}}],"devices":`), 1)
		const want = `unknown field "pending"`
		if _, err := DecodeCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("DecodeCheckpoint error %v, want %q", err, want)
		}
	})
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestCheckpointAdmissionAndIndexRoundTrip drives a broker through
// admission-control pressure (sheds and queue-full rejections) with a
// JobIndex attached, checkpoints at quiescence, restores into a fresh
// broker+index, and requires the re-taken checkpoint to be
// byte-identical — the AdmissionStats counters and the index's terminal
// ring must both survive serialization exactly.
func TestCheckpointAdmissionAndIndexRoundTrip(t *testing.T) {
	const retain = 4
	idx, err := NewJobIndex(retain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AdmissionConfig{Policy: AdmitShed, MaxQueue: 1, RetryAfterS: 30}
	b := admissionBroker(t, cfg, idx)

	// Two 300-qubit jobs run concurrently on the 635-qubit fleet; the
	// third queues, and each further offer sheds the queued one. More
	// offers than the ring retains exercises eviction recycling too.
	for i := 0; i < 8; i++ {
		id := []byte{'j', byte('0' + i)}
		if d := b.Offer(mkJob(string(id), "acme")); !d.Admitted {
			t.Fatalf("offer %d refused: %+v", i, d)
		}
	}
	b.Env().Run()
	if !b.Quiescent() {
		t.Fatalf("broker not quiescent: %d active, %d finished", b.Active(), b.Finished())
	}
	stats := b.AdmissionCounters()
	if stats.Shed == 0 {
		t.Fatalf("admission stats not exercised: %+v", stats)
	}
	if idx.Live() != 0 || idx.Retained() == 0 {
		t.Fatalf("index state: %d live, %d retained", idx.Live(), idx.Retained())
	}

	cp, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Jobs, err = idx.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := cp.Encode(&first); err != nil {
		t.Fatal(err)
	}

	decoded, err := DecodeCheckpoint(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Admission != stats {
		t.Fatalf("admission stats decoded as %+v, want %+v", decoded.Admission, stats)
	}
	if decoded.Jobs == nil || len(decoded.Jobs.Entries) != idx.Retained() {
		t.Fatalf("job index snapshot did not survive decode: %+v", decoded.Jobs)
	}

	b2, idx2 := restoreIndexed(t, cfg, retain, decoded)

	if got := b2.AdmissionCounters(); got != stats {
		t.Fatalf("restored admission stats %+v, want %+v", got, stats)
	}
	// A restored index answers status queries for retained jobs exactly
	// as the original did.
	for _, e := range decoded.Jobs.Entries {
		got := idx2.Lookup(e.ID)
		if got == nil {
			t.Fatalf("restored index lost job %s", e.ID)
		}
		if got.State != e.State || got.Finish != e.Finish || got.DropReason != e.DropReason {
			t.Fatalf("restored entry %s = %+v, want %+v", e.ID, got, e)
		}
	}

	cp2, err := b2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp2.Jobs, err = idx2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := cp2.Encode(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("checkpoint not byte-identical after restore:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

// restoreIndexed restores cp, job index included, into a fresh
// fill-policy broker with a retain-entry index under admission cfg.
func restoreIndexed(t *testing.T, cfg AdmissionConfig, retain int, cp *Checkpoint) (*Broker, *JobIndex) {
	t.Helper()
	env := sim.NewEnvironmentAt(cp.SimNow)
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewJobIndex(retain)
	if err != nil {
		t.Fatal(err)
	}
	pol := &fillPolicy{allocs: make([]policy.Allocation, 0, len(fleet))}
	b, err := NewBroker(env, fleet, pol, DefaultConfig(), idx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetAdmission(cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := idx.Restore(cp.Jobs); err != nil {
		t.Fatal(err)
	}
	return b, idx
}

// A checkpoint in the indented encoding earlier versions wrote still
// restores, and the restored broker's checkpoint encodes the same
// content as one compact line.
func TestIndentedCheckpointStillRestores(t *testing.T) {
	const retain = 4
	idx, err := NewJobIndex(retain)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AdmissionConfig{Policy: AdmitShed, MaxQueue: 1, RetryAfterS: 30}
	b := admissionBroker(t, cfg, idx)
	for i := range 8 {
		b.Offer(mkJob(fmt.Sprintf("j%d", i), "acme"))
	}
	b.Env().Run()
	snapshot := func(b *Broker, idx *JobIndex) *Checkpoint {
		cp, err := b.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.Jobs, err = idx.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cp.Ingested = 8
		return cp
	}
	indented, err := json.MarshalIndent(snapshot(b, idx), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	indented = append(indented, '\n')
	if bytes.Count(indented, []byte("\n")) < 50 {
		t.Fatalf("fixture is not in the indented form:\n%s", indented)
	}

	old, err := DecodeCheckpoint(bytes.NewReader(indented))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := snapshot(restoreIndexed(t, cfg, retain, old)).Encode(&got); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode after restoring the indented checkpoint:\n%s\nwant its one-line form:\n%s", got.Bytes(), want.Bytes())
	}
	again, err := DecodeCheckpoint(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, old) {
		t.Fatalf("compact checkpoint decodes to %+v, want %+v", again, old)
	}
}

// TestJobIndexRestoreValidation covers the restore preconditions: a
// dirty index, a retention mismatch, and an oversized snapshot are all
// refused.
func TestJobIndexRestoreValidation(t *testing.T) {
	snap := &JobIndexCheckpoint{Retain: 4}

	dirty, err := NewJobIndex(4)
	if err != nil {
		t.Fatal(err)
	}
	dirty.Arrival(mkJob("live", ""), 0)
	if err := dirty.Restore(snap); err == nil {
		t.Fatal("restore into a non-empty index succeeded")
	}

	mismatch, err := NewJobIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mismatch.Restore(snap); err == nil {
		t.Fatal("restore with retention mismatch succeeded")
	}

	fresh, err := NewJobIndex(4)
	if err != nil {
		t.Fatal(err)
	}
	over := &JobIndexCheckpoint{Retain: 4, Entries: make([]JobInfo, 5)}
	if err := fresh.Restore(over); err == nil {
		t.Fatal("restore of oversized snapshot succeeded")
	}

	if _, err := dirty.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a non-quiescent index succeeded")
	}
}

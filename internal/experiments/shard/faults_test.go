package shard

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/retry"
)

func mustInj(t *testing.T, rules ...faults.Rule) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(&faults.Plan{Seed: 7, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// An injected frame reset mid-shard must behave exactly like a worker
// crash: the coordinator respawns, requeues the remainder, and the
// merged manifest is identical to an undisturbed run.
func TestFaultTransportResetRequeuesRemainder(t *testing.T) {
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 2})
	labels := taskLabels(6)

	clean, err := (&Coordinator{Shards: 1, Transport: procTransport(t)}).Run(context.Background(), "x", spec, labels)
	if err != nil {
		t.Fatal(err)
	}

	inj := mustInj(t, faults.Rule{
		Layer: faults.LayerTransport, Op: faults.OpFrame, Kind: faults.KindReset, After: 2, Max: 1,
	})
	retries := 0
	c := Coordinator{
		Shards:    1,
		Transport: &FaultTransport{Inner: procTransport(t), Inj: inj},
		OnProgress: func(p Progress) {
			if p.Event == "retry" {
				retries++
			}
		},
	}
	faulted, err := c.Run(context.Background(), "x", spec, labels)
	if err != nil {
		t.Fatalf("run under injected reset: %v", err)
	}
	if retries == 0 {
		t.Fatal("reset fault never triggered the requeue path")
	}
	if len(faulted.Runs) != len(clean.Runs) {
		t.Fatalf("faulted run has %d rows, clean has %d", len(faulted.Runs), len(clean.Runs))
	}
	for i := range clean.Runs {
		if clean.Runs[i].ID != faulted.Runs[i].ID || clean.Runs[i].TsimS != faulted.Runs[i].TsimS {
			t.Fatalf("row %d diverged under fault injection: %+v vs %+v", i, clean.Runs[i], faulted.Runs[i])
		}
	}
	if evs := inj.Events(); len(evs) != 1 || evs[0].Kind != faults.KindReset {
		t.Fatalf("fault log = %+v, want exactly one reset", evs)
	}
}

// A transient partition at dial time heals under RetryTransport: the
// shared retry policy re-dials and the run completes. Without it, the
// same partition is terminal.
func TestRetryTransportHealsTransientPartition(t *testing.T) {
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 1})
	labels := taskLabels(4)

	// Terminal without retry: connect errors are final by contract.
	inj := mustInj(t, faults.Rule{
		Layer: faults.LayerTransport, Op: faults.OpConnect, Kind: faults.KindPartition, Max: 1,
	})
	c := Coordinator{
		Shards:    1,
		Transport: &FaultTransport{Inner: procTransport(t), Inj: inj},
	}
	if _, err := c.Run(context.Background(), "x", spec, labels); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("unretried partition = %v, want terminal partition error", err)
	}

	// Healed with retry: the second dial attempt goes through.
	inj = mustInj(t, faults.Rule{
		Layer: faults.LayerTransport, Op: faults.OpConnect, Kind: faults.KindPartition, Max: 1,
	})
	var delays []time.Duration
	c = Coordinator{
		Shards: 1,
		Transport: &RetryTransport{
			Inner: &FaultTransport{Inner: procTransport(t), Inj: inj},
			Policy: retry.Policy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				Sleep: func(ctx context.Context, d time.Duration) error {
					delays = append(delays, d)
					return nil
				},
			},
		},
	}
	m, err := c.Run(context.Background(), "x", spec, labels)
	if err != nil {
		t.Fatalf("partition did not heal under RetryTransport: %v", err)
	}
	if len(m.Runs) != 4 {
		t.Fatalf("healed run produced %d rows, want 4", len(m.Runs))
	}
	if len(delays) != 1 {
		t.Fatalf("retry slept %d times, want 1", len(delays))
	}
}

// A duplicated frame must trip the coordinator's integrity check, not
// silently double-count a task.
func TestFaultTransportDupTripsIntegrityCheck(t *testing.T) {
	inj := mustInj(t, faults.Rule{
		Layer: faults.LayerTransport, Op: faults.OpFrame, Kind: faults.KindDup, After: 1, Max: 1,
	})
	c := Coordinator{
		Shards:    1,
		Retries:   0,
		Transport: &FaultTransport{Inner: procTransport(t), Inj: inj},
	}
	spec := specJSON(t, testSpec{FailAt: -1, CrashAt: -1, Scale: 1})
	_, err := c.Run(context.Background(), "x", spec, taskLabels(4))
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicated frame = %v, want duplicate-index integrity error", err)
	}
}

package retry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeSleep records requested delays without sleeping.
func fakeSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestDoFirstTrySuccessNoSleep(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, Sleep: fakeSleep(&delays)}
	calls := 0
	if err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return nil
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 || len(delays) != 0 {
		t.Fatalf("calls=%d delays=%v, want 1 call and no sleeps", calls, delays)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Sleep: fakeSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls=%d sleeps=%d, want 3 calls and 2 sleeps", calls, len(delays))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: fakeSleep(&delays)}
	base := errors.New("still down")
	err := p.Do(context.Background(), func(context.Context) error { return base })
	if !errors.Is(err, base) {
		t.Fatalf("exhaustion error %v does not wrap the last failure", err)
	}
	if !strings.Contains(err.Error(), "3 attempt(s) exhausted") {
		t.Fatalf("error %q missing attempt count", err)
	}
	if len(delays) != 2 {
		t.Fatalf("%d sleeps for 3 attempts, want 2", len(delays))
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		p := Policy{
			MaxAttempts: 8,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    80 * time.Millisecond,
			Seed:        seed,
			Sleep:       fakeSleep(&delays),
		}
		p.Do(context.Background(), func(context.Context) error { return errors.New("x") }) //lint:allow errlint exhaustion is the point of this run
		return delays
	}
	a, b := run(7), run(7)
	if len(a) != 7 {
		t.Fatalf("%d delays, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across runs with the same seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 10*time.Millisecond || a[i] > 80*time.Millisecond {
			t.Fatalf("delay %d = %v outside [base, cap]", i, a[i])
		}
	}
	if c := run(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds produced the same leading delays %v", c[:3])
	}
}

func TestPermanentStopsRetry(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, Sleep: fakeSleep(&delays)}
	base := errors.New("bad request")
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(base)
	})
	if !errors.Is(err, base) {
		t.Fatalf("error %v does not wrap the cause", err)
	}
	if calls != 1 || len(delays) != 0 {
		t.Fatalf("permanent error retried: calls=%d sleeps=%d", calls, len(delays))
	}
}

func TestContextCancellationStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	calls := 0
	err := p.Do(ctx, func(context.Context) error { calls++; return errors.New("x") })
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	if calls != 0 {
		t.Fatalf("cancelled context still ran %d attempts", calls)
	}
}

func TestRetryAfterHintFloorsDelay(t *testing.T) {
	var delays []time.Duration
	p := Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Sleep:       fakeSleep(&delays),
	}
	hint := 250 * time.Millisecond
	p.Do(context.Background(), func(context.Context) error { //lint:allow errlint exhaustion is the point of this run
		return After(errors.New("throttled"), hint)
	})
	if len(delays) != 2 {
		t.Fatalf("%d sleeps, want 2", len(delays))
	}
	for i, d := range delays {
		if d < hint {
			t.Fatalf("delay %d = %v below the server's Retry-After floor %v", i, d, hint)
		}
	}
}

func TestHintTraversesWrapping(t *testing.T) {
	err := fmt.Errorf("outer: %w", After(errors.New("inner"), 3*time.Second))
	d, ok := Hint(err)
	if !ok || d != 3*time.Second {
		t.Fatalf("Hint = %v, %v; want 3s, true", d, ok)
	}
	if _, ok := Hint(errors.New("plain")); ok {
		t.Fatal("plain error reported a hint")
	}
}

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	base := errors.New("x")
	err := Policy{}.Do(context.Background(), func(context.Context) error { calls++; return base })
	if calls != 1 || !errors.Is(err, base) {
		t.Fatalf("zero policy: calls=%d err=%v", calls, err)
	}
}

// Package retry is the repo's single retry/backoff discipline: one
// policy type shared by the HTTP submit client and checkpoint writes.
// The backoff is capped decorrelated jitter (each sleep drawn uniformly
// from [base, 3·previous], clamped to the cap) driven by a seeded RNG,
// so a fixed seed reproduces the exact delay sequence — retries stay as
// replayable as everything else in this repo.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Defaults applied by Policy.Do when the corresponding field is zero.
const (
	// DefaultBaseDelay is the first backoff delay.
	DefaultBaseDelay = 100 * time.Millisecond
	// DefaultMaxDelay caps a single backoff delay.
	DefaultMaxDelay = 10 * time.Second
)

// Policy describes how an operation is retried. The zero value runs the
// operation exactly once with no sleeps — callers opt in to retries by
// setting MaxAttempts.
type Policy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the lower bound of every backoff delay (and the whole
	// first delay's lower bound). Zero uses DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps each individual delay. Zero uses DefaultMaxDelay.
	// A Retry-After hint from the failing operation may exceed the cap:
	// the server's word beats the client's guess.
	MaxDelay time.Duration
	// Seed fixes the jitter RNG so a policy replays the same delay
	// sequence. The zero seed is itself a valid fixed seed.
	Seed int64
	// Classify reports whether an error is worth retrying. Nil uses
	// Retryable: everything except context errors and Permanent-wrapped
	// failures.
	Classify func(error) bool
	// Sleep waits between attempts. Nil sleeps on a timer, honoring
	// context cancellation. Tests inject a recorder here.
	Sleep func(ctx context.Context, d time.Duration) error
}

// permanentError marks a failure that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retryable (and therefore the default policy
// classification) refuses to retry it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// hintError carries a server-supplied Retry-After delay.
type hintError struct {
	err error
	d   time.Duration
}

func (e *hintError) Error() string                 { return e.err.Error() }
func (e *hintError) Unwrap() error                 { return e.err }
func (e *hintError) RetryAfterHint() time.Duration { return e.d }

// After attaches a Retry-After hint to err: Do uses it as a floor for
// the next backoff delay, letting servers pace their clients. A nil err
// stays nil.
func After(err error, d time.Duration) error {
	if err == nil {
		return nil
	}
	return &hintError{err: err, d: d}
}

// Hint extracts a Retry-After delay from err, if any error in its chain
// carries one (via After or its own RetryAfterHint method).
func Hint(err error) (time.Duration, bool) {
	var h interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &h) {
		return h.RetryAfterHint(), true
	}
	return 0, false
}

// Retryable is the default error classification: retry anything except
// context cancellation/deadline and Permanent-wrapped failures.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *permanentError
	return !errors.As(err, &pe)
}

// sleepCtx is the default Sleep: a timer racing the context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op under the policy: attempts are separated by capped
// decorrelated-jitter delays, stop on success, a non-retryable error,
// attempt exhaustion, or context cancellation.
// The returned error wraps the last attempt's failure.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultMaxDelay
	}
	if maxDelay < base {
		maxDelay = base
	}
	classify := p.Classify
	if classify == nil {
		classify = Retryable
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	rng := rand.New(rand.NewSource(p.Seed))
	prev := base
	var err error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			if err != nil {
				return fmt.Errorf("retry: giving up after %d attempt(s) (%v): %w", attempt-1, ctx.Err(), err)
			}
			return ctx.Err()
		}
		err = op(ctx)
		if err == nil {
			return nil
		}
		if !classify(err) {
			return err
		}
		if attempt >= attempts {
			return fmt.Errorf("retry: %d attempt(s) exhausted: %w", attempts, err)
		}
		d := nextDelay(rng, base, maxDelay, prev)
		if h, ok := Hint(err); ok && h > d {
			d = h
		}
		prev = d
		if serr := sleep(ctx, d); serr != nil {
			return fmt.Errorf("retry: giving up after %d attempt(s) (%v): %w", attempt, serr, err)
		}
	}
}

// nextDelay draws one decorrelated-jitter delay: uniform in
// [base, 3·prev], clamped to [base, maxDelay].
func nextDelay(rng *rand.Rand, base, maxDelay, prev time.Duration) time.Duration {
	hi := 3 * prev
	if hi > maxDelay {
		hi = maxDelay
	}
	if hi <= base {
		return base
	}
	return base + time.Duration(rng.Int63n(int64(hi-base)+1))
}

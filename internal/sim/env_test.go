package sim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEnvironmentStartsAtZero(t *testing.T) {
	env := NewEnvironment()
	if env.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", env.Now())
	}
}

func TestNewEnvironmentAt(t *testing.T) {
	env := NewEnvironmentAt(42.5)
	if env.Now() != 42.5 {
		t.Fatalf("Now() = %g, want 42.5", env.Now())
	}
}

// A timer callback advances the clock to its due time, and Run returns
// the time of the last event.
func TestTimeoutAdvancesClock(t *testing.T) {
	env := NewEnvironment()
	var at float64
	env.AfterFunc(10, func() { at = env.Now() })
	end := env.Run()
	if end != 10 || at != 10 {
		t.Fatalf("Run() = %g, callback saw %g, want 10", end, at)
	}
}

func TestEventsProcessedInTimeOrder(t *testing.T) {
	env := NewEnvironment()
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		env.AfterFunc(d, func() {
			order = append(order, d)
		})
	}
	env.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("processed %d events, want 5", len(order))
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	env := NewEnvironment()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.AfterFunc(7, func() {
			order = append(order, i)
		})
	}
	// A callback scheduling at delay 0 queues behind everything already
	// due at the same instant.
	env.AfterFunc(7, func() {
		env.AfterFunc(0, func() { order = append(order, 11) })
		order = append(order, 10)
	})
	env.Run()
	if len(order) != 12 {
		t.Fatalf("processed %d events, want 12", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, got, i, order)
		}
	}
}

// The TestRunUntil* tests check AdvanceTo as a bounded run, simpy's
// Environment.run(until=...).

func TestRunUntilStopsAtBoundary(t *testing.T) {
	env := NewEnvironment()
	fired := 0
	env.AfterFunc(5, func() { fired++ })
	env.AfterFunc(15, func() { fired++ })
	env.AdvanceTo(10)
	if end := env.Now(); end != 10 {
		t.Fatalf("AdvanceTo(10) left the clock at %g, want 10", end)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The later event is still runnable afterwards.
	env.Run()
	if fired != 2 {
		t.Fatalf("after Run fired = %d, want 2", fired)
	}
}

func TestRunUntilInclusiveOfBoundaryEvents(t *testing.T) {
	env := NewEnvironment()
	fired := false
	env.AfterFunc(10, func() { fired = true })
	env.AdvanceTo(10)
	if !fired {
		t.Fatal("event at exactly the boundary should fire")
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	env := NewEnvironmentAt(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for AdvanceTo in the past")
		}
	}()
	env.AdvanceTo(50)
}

func TestStepEmptySchedule(t *testing.T) {
	env := NewEnvironment()
	if err := env.Step(); !errors.Is(err, ErrEmptySchedule) {
		t.Fatalf("Step on empty queue = %v, want ErrEmptySchedule", err)
	}
}

func TestPeek(t *testing.T) {
	env := NewEnvironment()
	if !math.IsInf(env.Peek(), 1) {
		t.Fatalf("Peek on empty queue = %g, want +Inf", env.Peek())
	}
	env.AfterFunc(9, func() {})
	env.AfterFunc(4, func() {})
	if env.Peek() != 4 {
		t.Fatalf("Peek = %g, want 4", env.Peek())
	}
	if err := env.Step(); err != nil {
		t.Fatal(err)
	}
	if env.Peek() != 9 {
		t.Fatalf("Peek after Step = %g, want 9", env.Peek())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	for name, d := range map[string]float64{"negative": -1, "NaN": math.NaN()} {
		func() {
			env := NewEnvironment()
			defer func() {
				if recover() == nil {
					t.Errorf("%s delay: expected panic", name)
				}
			}()
			env.AfterFunc(d, func() {})
		}()
	}
}

// simGoroutines counts the live goroutines that code in this package
// started. The full stack dump names each goroutine's creator, so
// goroutines of other packages coming and going cannot skew the count.
func simGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by repro/internal/sim."))
}

// Property: for any set of non-negative delays, Run processes all events in
// nondecreasing time order, starts no goroutine, and finishes at the max
// delay.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		env := NewEnvironment()
		var seen []float64
		maxDelay := 0.0
		for _, r := range raw {
			d := float64(r) / 8.0
			if d > maxDelay {
				maxDelay = d
			}
			env.AfterFunc(d, func() {
				seen = append(seen, env.Now())
			})
		}
		end := env.Run()
		if end != maxDelay || simGoroutines() != 0 {
			return false
		}
		if len(seen) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AdvanceTo(T) never processes an event scheduled after T and
// always leaves the clock exactly at T.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(raw []uint8, horizon uint8) bool {
		env := NewEnvironment()
		T := float64(horizon)
		late := 0
		for _, r := range raw {
			d := float64(r)
			env.AfterFunc(d, func() {
				if env.Now() > T {
					late++
				}
			})
		}
		env.AdvanceTo(T)
		return late == 0 && env.Now() == T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

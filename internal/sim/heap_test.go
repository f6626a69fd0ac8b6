package sim

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// Regression for the event-heap leak: pop used to shrink the slice
// without zeroing the vacated tail slot, so the backing array kept a
// live pointer to every processed callback (and what its closure
// captures) until the heap next grew past that index — unbounded retained memory
// in a long-running broker hovering at a steady queue length. Inspect
// the backing array directly: every slot beyond len must be zero.
func TestEventHeapPopZeroesVacatedSlot(t *testing.T) {
	env := NewEnvironment()
	for i := 0; i < 32; i++ {
		env.AfterFunc(float64(i), func() {})
	}
	high := cap(env.queue)
	env.Run()
	if len(env.queue) != 0 {
		t.Fatalf("queue not drained: len %d", len(env.queue))
	}
	backing := env.queue[:cap(env.queue)]
	if cap(env.queue) < high {
		t.Fatalf("backing array shrank: %d < %d", cap(env.queue), high)
	}
	for i, slot := range backing {
		if slot.fn != nil {
			t.Fatalf("slot %d still pins a processed event: %+v", i, slot)
		}
		if slot.time != 0 || slot.seq != 0 {
			t.Fatalf("slot %d not zeroed: %+v", i, slot)
		}
	}
}

// Sustained churn through the heap must neither allocate nor grow the
// backing array once it has reached the working size: one million timer
// events at a bounded queue depth run with a flat heap footprint.
func TestEventHeapChurnAllocFreeAndFlat(t *testing.T) {
	env := NewEnvironment()
	const depth = 64
	var tick func()
	fired := 0
	tick = func() {
		fired++
		if fired < 1_000_000 {
			env.AfterFunc(1, tick)
		}
	}
	// Keep `depth` timers in flight at all times.
	for i := 0; i < depth; i++ {
		env.AfterFunc(float64(i), tick)
	}
	// Warm up: let the backing array reach its working size.
	for i := 0; i < 4*depth; i++ {
		if err := env.Step(); err != nil {
			t.Fatal(err)
		}
	}
	capBefore := cap(env.queue)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			if err := env.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("heap churn allocates %.2f per 1000 events, want 0", avg)
	}
	if cap(env.queue) != capBefore {
		t.Fatalf("heap backing array grew under steady churn: %d -> %d", capBefore, cap(env.queue))
	}
	env.Run()
	if fired < 1_000_000 {
		t.Fatalf("fired %d", fired)
	}
}

func TestStepWithinDistinguishesIdleFromEmpty(t *testing.T) {
	env := NewEnvironment()
	if err := env.StepWithin(100); !errors.Is(err, ErrEmptySchedule) {
		t.Fatalf("empty queue: %v, want ErrEmptySchedule", err)
	}
	env.AfterFunc(50, func() {})
	if err := env.StepWithin(49); !errors.Is(err, ErrIdle) {
		t.Fatalf("event beyond horizon: %v, want ErrIdle", err)
	}
	if env.Now() != 0 {
		t.Fatalf("ErrIdle moved the clock to %g", env.Now())
	}
	if err := env.StepWithin(50); err != nil {
		t.Fatalf("event at horizon: %v", err)
	}
	if env.Now() != 50 {
		t.Fatalf("now = %g", env.Now())
	}
}

func TestAdvanceToProcessesDueEventsAndPinsClock(t *testing.T) {
	env := NewEnvironment()
	var fired []float64
	for _, d := range []float64{5, 10, 15, 30} {
		d := d
		env.AfterFunc(d, func() { fired = append(fired, d) })
	}
	if n := env.AdvanceTo(15); n != 3 {
		t.Fatalf("AdvanceTo processed %d events, want 3", n)
	}
	if env.Now() != 15 {
		t.Fatalf("now = %g, want 15", env.Now())
	}
	// No event at 20: the clock still lands exactly on the target.
	if n := env.AdvanceTo(20); n != 0 {
		t.Fatalf("AdvanceTo(20) processed %d events", n)
	}
	if env.Now() != 20 {
		t.Fatalf("now = %g, want 20", env.Now())
	}
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("fired = %v", fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past should panic")
		}
	}()
	env.AdvanceTo(10)
}

func TestAfterFuncOrdersWithEvents(t *testing.T) {
	env := NewEnvironment()
	var order []string
	env.AfterFunc(10, func() { order = append(order, "a@10") })
	env.AfterFunc(10, func() { order = append(order, "b@10") })
	env.AfterFunc(5, func() {
		order = append(order, "c@5")
		// Scheduled later but due at the same instant: runs after a and b.
		env.AfterFunc(5, func() { order = append(order, "d@10") })
	})
	env.Run()
	// Same-time entries fire in scheduling order (seq ties).
	want := []string{"c@5", "a@10", "b@10", "d@10"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncValidation(t *testing.T) {
	env := NewEnvironment()
	for name, fn := range map[string]func(){
		"nil fn":         func() { env.AfterFunc(1, nil) },
		"negative delay": func() { env.AfterFunc(-1, func() {}) },
		"NaN delay":      func() { env.AfterFunc(math.NaN(), func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// A serve session starting from a checkpointed clock schedules relative
// to the nonzero origin, and draining it leaves no goroutine behind.
func TestNonzeroStartServeSessionDrainsClean(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	env := NewEnvironmentAt(5000)
	done := 0
	// A two-step callback chain: start at the origin, finish 10 later.
	env.AfterFunc(0, func() {
		env.AfterFunc(10, func() { done++ })
	})
	env.AfterFunc(25, func() { done++ })
	if got := env.Peek(); got != 5000 {
		t.Fatalf("first event at %g, want 5000", got)
	}
	if end := env.Run(); end != 5025 {
		t.Fatalf("drained at %g, want 5025", end)
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("goroutines %d after drain, %d before", n, goroutines)
	}
}

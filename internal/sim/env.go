package sim

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySchedule is returned by Run variants when the event queue drains
// before the requested end condition is met.
var ErrEmptySchedule = errors.New("sim: event queue is empty")

// ErrIdle is returned by StepWithin when the queue is non-empty but the
// next event lies beyond the requested horizon: the simulation is not
// done, it is waiting. A long-running broker distinguishes this from
// ErrEmptySchedule — idle means "nothing due yet, more may be injected",
// empty means "nothing scheduled at all".
var ErrIdle = errors.New("sim: next event beyond horizon")

// queuedEvent is a heap entry: a scheduled callback plus its ordering
// key.
type queuedEvent struct {
	time float64
	seq  uint64
	fn   func()
}

// eventHeap is a binary min-heap ordered by (time, seq). The
// sift operations are implemented directly instead of via container/heap:
// heap.Push/heap.Pop box every queuedEvent through an interface value,
// which allocates on each call — unacceptable in the broker's allocation-
// gated steady state.
type eventHeap []queuedEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// push inserts item, keeping the heap invariant. Allocation-free once
// the backing array has grown to the queue's working size.
func (h *eventHeap) push(item queuedEvent) {
	q := append(*h, item)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum entry. The vacated tail slot is
// zeroed before truncating: the backing array outlives the pop, and a
// stale slot would pin the processed callback (and everything its
// closure captures) until the heap next grows past it — a real memory leak in a
// long-running broker that hovers around a steady queue length.
func (h *eventHeap) pop() queuedEvent {
	q := *h
	n := len(q) - 1
	item := q[0]
	q[0] = q[n]
	q[n] = queuedEvent{}
	q = q[:n]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && q.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	*h = q
	return item
}

// Environment is the discrete-event simulation core: it owns the clock and
// the time-ordered callback queue and drives event processing.
//
// An Environment is not safe for concurrent use: callbacks run on the
// goroutine that steps it, one at a time.
type Environment struct {
	now   float64
	queue eventHeap
	seq   uint64
}

// NewEnvironment creates an environment with the clock at zero.
func NewEnvironment() *Environment {
	return &Environment{}
}

// NewEnvironmentAt creates an environment with the clock at start.
func NewEnvironmentAt(start float64) *Environment {
	return &Environment{now: start}
}

// Now returns the current simulation time.
func (env *Environment) Now() float64 { return env.now }

// QueueLen returns the number of scheduled, unprocessed events. Useful
// for tests and diagnostics.
func (env *Environment) QueueLen() int { return len(env.queue) }

// AfterFunc schedules fn to run after delay time units, behind every
// callback already scheduled for the same instant. It is the kernel's
// only scheduling primitive: only a heap slot is used, so a reused fn
// (a pre-bound method value or closure) makes the call allocation-free.
// fn runs on the goroutine stepping the environment and must not block;
// it may schedule further callbacks, including at delay 0.
func (env *Environment) AfterFunc(delay float64, fn func()) {
	// A negative or NaN delay would corrupt the event order.
	switch {
	case fn == nil:
		panic("sim: AfterFunc with nil fn")
	case delay < 0:
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	case math.IsNaN(delay):
		panic("sim: NaN delay")
	}
	env.seq++
	env.queue.push(queuedEvent{
		time: env.now + delay,
		seq:  env.seq,
		fn:   fn,
	})
}

// Peek returns the scheduled time of the next event, or +Inf if the queue
// is empty.
func (env *Environment) Peek() float64 {
	if len(env.queue) == 0 {
		return math.Inf(1)
	}
	return env.queue[0].time
}

// Step processes exactly one event. It returns ErrEmptySchedule if there
// is nothing left to do.
func (env *Environment) Step() error {
	if len(env.queue) == 0 {
		return ErrEmptySchedule
	}
	item := env.queue.pop()
	if item.time < env.now {
		panic(fmt.Sprintf("sim: time went backwards: %g < %g", item.time, env.now))
	}
	env.now = item.time
	item.fn()
	return nil
}

// StepWithin processes exactly one event if one is due at or before
// horizon. It returns ErrEmptySchedule on an empty queue, or ErrIdle —
// leaving the clock untouched — when the next event lies beyond the
// horizon. Open-ended serve loops use it to advance as far as external
// time allows without overrunning it.
func (env *Environment) StepWithin(horizon float64) error {
	if len(env.queue) == 0 {
		return ErrEmptySchedule
	}
	if env.queue[0].time > horizon {
		return ErrIdle
	}
	return env.Step()
}

// AdvanceTo processes every event due at or before t and then sets the
// clock to exactly t, returning the number of events processed. Unlike
// RunUntil it reports progress, making it the natural primitive for a
// broker mapping external (wall or scaled) time onto the simulation.
func (env *Environment) AdvanceTo(t float64) int {
	if t < env.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%g) is in the past (now=%g)", t, env.now))
	}
	n := 0
	for env.StepWithin(t) == nil {
		n++
	}
	if env.now < t {
		env.now = t
	}
	return n
}

// Run processes events until the queue is empty and returns the final
// simulation time.
func (env *Environment) Run() float64 {
	for env.Step() == nil {
	}
	return env.now
}

// RunUntil processes events until the clock would pass the given time.
// Events scheduled exactly at `until` are processed. The clock is advanced
// to `until` even if the queue drains earlier, mirroring
// simpy.Environment.run(until=...).
func (env *Environment) RunUntil(until float64) float64 {
	if until < env.now {
		panic(fmt.Sprintf("sim: RunUntil(%g) is in the past (now=%g)", until, env.now))
	}
	env.AdvanceTo(until)
	return env.now
}

// Package sim implements a deterministic discrete-event simulation (DES)
// kernel: a clock plus a queue of callbacks ordered by (time, sequence
// number).
//
// Environment.AfterFunc is the only scheduling primitive. Each call takes
// the next sequence number, so callbacks due at the same simulated time
// run in the order they were scheduled, and a run is fully deterministic.
// A callback may schedule further callbacks — a chain of AfterFunc calls
// is how a multi-step lifecycle (a job's execute → communicate → finish,
// a workload's arrivals, a recalibration ticker) is expressed. The
// kernel starts no goroutine: callbacks run one at a time on whichever
// goroutine steps the environment (Step, StepWithin, AdvanceTo, Run).
//
// A minimal simulation:
//
//	env := sim.NewEnvironment()
//	env.AfterFunc(10, func() {
//	    fmt.Println("woke at", env.Now())
//	})
//	env.Run()
//
// The quantum-cloud layer (internal/core) drives every job, arrival and
// drift tick through AfterFunc chains; devices (internal/device) keep
// their qubit pools as plain free counts.
package sim

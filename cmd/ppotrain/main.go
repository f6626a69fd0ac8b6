// Command ppotrain trains the PPO scheduling policy on the QCloudGymEnv
// (§4.1, §6.6) and writes the trained model plus the Figure 5 training
// curve. The paper trains for 100,000 timesteps; the curves stabilize
// around 40–50k.
//
// Example:
//
//	ppotrain -timesteps 100000 -out policy.json -curve fig5.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppotrain:", err)
		os.Exit(1)
	}
}

// run parses args (a bad flag exits 2, as the flag package does),
// trains, and writes the model, the optional curve, and its report to
// stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("ppotrain", flag.ExitOnError)
	var (
		timesteps = fs.Int("timesteps", 100000, "PPO training timesteps")
		out       = fs.String("out", "policy.json", "output path for the trained policy")
		curve     = fs.String("curve", "", "optional CSV path for the Fig. 5 training curve")
		fleetSeed = fs.Int64("fleet-seed", 2025, "calibration snapshot seed")
		seed      = fs.Int64("seed", 1, "PPO initialization/sampling seed")
		randomize = fs.Bool("randomize-levels", false, "train on randomized device occupancy")
		quiet     = fs.Bool("q", false, "suppress progress output")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
	)
	fs.Parse(args) //lint:allow errlint ExitOnError: Parse exits instead of returning an error
	if err := profiling.CheckPaths(*cpuProfile, *memProfile); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, *fleetSeed)
	if err != nil {
		return err
	}
	info := rlsched.InfoFromFleet(fleet)
	gymCfg := rlsched.DefaultGymConfig()
	gymCfg.RandomizeLevels = *randomize
	gymCfg.Seed = *seed
	ppoCfg := rl.DefaultPPOConfig()
	ppoCfg.Seed = *seed

	onIter := func(s rl.TrainStats) {
		if !*quiet {
			fmt.Fprintf(stdout, "steps=%6d reward=%.4f entropy_loss=%.3f policy_loss=%.4f value_loss=%.4f clip=%.2f\n", //lint:allow errlint progress is best-effort; a broken stdout must not stop training
				s.Timesteps, s.MeanEpisodeReward, s.EntropyLoss, s.PolicyLoss, s.ValueLoss, s.ClipFraction)
		}
	}
	pol, hist, err := rlsched.Train(info, gymCfg, ppoCfg, *timesteps, onIter)
	if err != nil {
		return err
	}
	if err := rlsched.SavePolicy(*out, pol); err != nil {
		return err
	}
	// PPO trains whole rollouts, so it may take more steps than asked.
	fmt.Fprintf(stdout, "trained %d timesteps; policy written to %s\n", hist[len(hist)-1].Timesteps, *out) //lint:allow errlint the model is already written; a broken stdout must not fail the run

	if *curve != "" {
		reward, entropy := experiments.Fig5Series(hist)
		f, err := os.Create(*curve)
		if err != nil {
			return err
		}
		if err := stats.WriteSeriesCSV(f, reward, entropy); err != nil {
			f.Close() //lint:allow errlint the write error is the one to report; close is failure-path cleanup
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "training curve written to %s\n", *curve) //lint:allow errlint the curve is already written; a broken stdout must not fail the run
	}
	return nil
}

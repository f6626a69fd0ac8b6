package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/records"
)

// TestPinnedManifestDigests pins the SHA-256 of the normalized manifest
// (wall time and worker accounting zeroed — see normalizedJSON) that
// a one-worker run produces for each task matrix kind on the small
// case. Larger pools are proven equal to one worker elsewhere, so
// these digests are the independent reference for what the experiment
// engine computes: a refactor of the engine must leave every one of
// them unchanged.
//
// The per-artifact entry points that predate Run (RunAll, PhiSweep,
// LambdaSweep, RunReplicated, RLDeploymentAblation, their *Parallel
// and *Sharded forms, and the executor types that ExecOptions replaced)
// ran this same engine; these pins carry their results forward, so no
// digest may change when such entry points go.
func TestPinnedManifestDigests(t *testing.T) {
	replicated := specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed", "fair"}})
	replicated.Replications = 2
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"modes", specForSmallCase(TaskMatrix{Kind: "modes"}),
			"7708b152b46bbe72339ebdab7eaa397feb3aaa74ec9250ade595263c35ffb0e6"},
		{"phi-sweep/speed", specForSmallCase(TaskMatrix{Kind: "phi-sweep", Mode: "speed", Values: []float64{0.85, 0.9, 0.95, 1}}),
			"d76b538ce39b1744e79b5bc2a7bdc267fc72c654ae2f1e32094ddec4d5d66521"},
		{"lambda-sweep/fair", specForSmallCase(TaskMatrix{Kind: "lambda-sweep", Mode: "fair", Values: []float64{0, 0.02, 0.05, 0.1}}),
			"0ec7c29ab0dbbf41a3fbba81038c89679f4fd33dee0848aae573120b86358246"},
		{"modes/speed@seed1-3", specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed"}, ReplicationSeeds: []int64{1, 2, 3}}),
			"153e4fb32021682f6fdba366b8584abc0fe862db3f1e46837dd99ab26a80cd45"},
		{"rl-deploy", specForSmallCase(TaskMatrix{Kind: "rl-deploy"}),
			"068bd3ff8e018c8e27bcdf632dc162c7d8233cd9cf26087fe50b22d20a158f72"},
		{"replications=2", replicated,
			"abe4b4208a13a578542ec69c4dc15bea287da2f3605069fb3bf1fac355edc365"},
		{"scenario/hetero-fleet", scenarioSpec("hetero-fleet"),
			"c7e0c25ece0db62212a107044a1b7276281e247e13ff97a20c81851a32b07236"},
		{"scenario/stress-arrivals", scenarioSpec("stress-arrivals"),
			"8be97e788010ab7c8f85878e4441ba7a3b00aeb2530c80c59ba04233d069e2a4"},
		{"scenario/calibration-drift", scenarioSpec("calibration-drift"),
			"9652b70944464808215b4ab76b9b87c833064912f9fefd178b8f16713a511c2f"},
		{"scenario/trace-replay", scenarioSpec("trace-replay"),
			"303ee1f83f218192fc7cdd90c124a6deb276266f8219e75b8dfc9690e43a2ed0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.spec.Scenario == "trace-replay" {
				// The scenario's trace path is relative to the
				// repository root.
				t.Chdir("../..")
			}
			m, err := Run(context.Background(), c.spec, ExecOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(normalizedJSON(t, m))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("normalized manifest digest = %s, want %s", got, c.want)
			}
		})
	}
}

// scenarioSpec is the small case's speed and fair modes on the named
// built-in scenario. A trace fixes its own job count, so the
// trace-replay spec carries no jobs override.
func scenarioSpec(name string) Spec {
	s := specForSmallCase(TaskMatrix{Kind: "modes", Modes: []string{"speed", "fair"}})
	s.Scenario = name
	if name == "trace-replay" {
		s.Jobs = 0
	}
	return s
}

// normalizedJSON renders a manifest with the fields that legitimately
// differ between runs of one experiment — label, wall-clock times and
// worker accounting — zeroed, so equality is a byte comparison of
// everything that must be deterministic.
func normalizedJSON(t *testing.T, m *records.RunManifest) []byte {
	t.Helper()
	c := *m
	c.Label = ""
	c.Workers = 0
	c.Runs = append([]records.RunSummary(nil), m.Runs...)
	for i := range c.Runs {
		c.Runs[i].WallMS = 0
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

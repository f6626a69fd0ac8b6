package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// defaultSeed is the seed whose simulated outputs are pinned below.
const defaultSeed = 1

// knownDigests pins the SHA-256 of every batch export CSV on the default
// seed, by workload and policy. A change that only makes the program
// faster leaves them as they are; a change of simulated results (T_sim,
// μF, T_comm, per-job records) shows here first.
var knownDigests = map[string]map[string]string{
	"table2-batch": {
		"speed":    "c77e6f3a8cc5df936b9c6c276f3917b4a0f85cf4b78c1ffb2ebd5a6a8432fcc4",
		"fidelity": "73c3ffecc87922cabb40a48b51251409260838d1e78e13ee6981ea6ea0b5f359",
		"fair":     "bf4720fb6d497cbb9f8236acef30a9203c9a410c732ad17fe8e4f8a2c964896e",
		"rlbase":   "7a9ec716e0ccf5c6518222a8ada8ccb17ea33496557e3260046c4c1415193940",
	},
	"backfill-backlog": {
		"speed":    "0fc546b183fc2492378a4a718dfc1f9114bc4bbe2f3ccc7f5afb2ccbe82deb37",
		"fidelity": "195c4a089fb4a8cd810d94f716c8345baf994ad2a5e36e4976a6bd5f31aed464",
	},
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkExport verifies the per-job invariants of an export CSV for a
// workload of n generated jobs: one row per job, start ≥ arrival and
// finish ≥ start.
func checkExport(data []byte, n int) error {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) == 0 || !bytes.HasPrefix(lines[0], []byte("job_id,arrival,start,finish,")) {
		return fmt.Errorf("export: unexpected header")
	}
	rows := lines[1:]
	if len(rows) != n {
		return fmt.Errorf("export: %d rows for %d jobs", len(rows), n)
	}
	seen := make([]bool, n)
	for _, row := range rows {
		f := bytes.SplitN(row, []byte(","), 5)
		if len(f) < 5 {
			return fmt.Errorf("export: short row %q", row)
		}
		i, ok := jobIndex(f[0])
		if !ok || i >= n || seen[i] {
			return fmt.Errorf("export: unexpected or repeated job %q", f[0])
		}
		seen[i] = true
		var t [3]float64
		for k := range t {
			v, err := strconv.ParseFloat(string(f[1+k]), 64)
			if err != nil {
				return fmt.Errorf("export: job %s: %v", f[0], err)
			}
			t[k] = v
		}
		if arrival, start, finish := t[0], t[1], t[2]; start < arrival || finish < start {
			return fmt.Errorf("export: job %s: arrival %g start %g finish %g", f[0], arrival, start, finish)
		}
	}
	return nil
}

// checkPinned compares an export digest with the pinned one on the
// default seed; other seeds have no pinned digests.
func checkPinned(seed int64, workload, pol, got string) error {
	if seed != defaultSeed {
		return nil
	}
	want := knownDigests[workload][pol]
	if want != got {
		return fmt.Errorf("%s %s: export digest %s, pinned %s", workload, pol, got, want)
	}
	return nil
}

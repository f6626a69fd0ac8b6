package records

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// referenceWriteStatsCSV is writeStatsCSV as it stood before rows were
// append-encoded: encoding/csv's Writer over one []string per row. It is
// the specification the hand-written encoder must match byte for byte.
func referenceWriteStatsCSV(w io.Writer, rows []*JobStats) error {
	cw := csv.NewWriter(w)
	header := []string{
		"job_id", "arrival", "start", "finish",
		"wait", "exec", "turnaround",
		"fidelity", "comm_time", "devices", "device_names",
		"source", "remote", "conn_id",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range rows {
		conn := ""
		if s.Source != "" {
			conn = strconv.FormatInt(s.ConnID, 10)
		}
		row := []string{
			s.JobID,
			f(s.Arrival), f(s.Start), f(s.Finish),
			f(s.WaitTime()), f(s.ExecTime()), f(s.Turnaround()),
			f(s.Fidelity), f(s.CommTime),
			strconv.Itoa(s.Devices),
			strings.Join(s.DeviceNames, "+"),
			s.Source, s.Remote, conn,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// checkStatsCSV fails t unless writeStatsCSV and the reference write the
// same bytes for rows.
func checkStatsCSV(t *testing.T, rows []*JobStats) {
	t.Helper()
	var got, want bytes.Buffer
	if err := writeStatsCSV(&got, rows); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteStatsCSV(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("export differs from encoding/csv at byte %d:\n got %q\nwant %q",
			i, g[max(0, i-40):min(len(g), i+40)], w[max(0, i-40):min(len(w), i+40)])
	}
}

// FuzzStatsCSV is differential: for any job ID, device names, ingest
// provenance and times, including NaN, ±Inf, −0 and subnormals, the
// append encoder writes exactly encoding/csv's bytes. ndev picks how
// many of dev1 and dev2 the row lists (0, 1 or 2).
func FuzzStatsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, jobID, dev1, dev2 string, ndev int, source, remote string, connID int64,
		arrival, start, finish, fidelity, comm float64) {
		names := []string{dev1, dev2}[:((ndev%3)+3)%3]
		s := &JobStats{
			JobID: jobID, Arrival: arrival, Start: start, Finish: finish,
			Fidelity: fidelity, CommTime: comm,
			Devices: len(names), DeviceNames: names,
			Source: source, Remote: remote, ConnID: connID,
		}
		checkStatsCSV(t, []*JobStats{s, s})
	})
}

// TestStatsCSVMatchesReferenceAcrossFlushes writes enough random rows to
// cross the 64 KiB flush point several times, so rows that straddle a
// write are checked too, and confirms the export went out in pieces.
func TestStatsCSVMatchesReferenceAcrossFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	rows := make([]*JobStats, 3000)
	for i := range rows {
		names := []string{"ibm_quebec", "ibm_kyiv", "ibm_sherbrooke", "a,b", ` lead`}[:rng.Intn(4)]
		arrival := rng.ExpFloat64() * 1e4
		start := arrival + rng.Float64()*100
		rows[i] = &JobStats{
			JobID:   pick(fmt.Sprintf("job-%04d", i), `q"x`, "line\nbreak", "é"),
			Arrival: arrival, Start: start, Finish: start + rng.Float64()*1e3,
			Fidelity: rng.Float64(), CommTime: rng.Float64() * 10,
			Devices: len(names), DeviceNames: names,
			Source: pick("", "stdin", "http"), Remote: pick("", "127.0.0.1:5000"),
			ConnID: rng.Int63n(100),
		}
	}
	checkStatsCSV(t, rows)
	var cw countingWriter
	if err := writeStatsCSV(&cw, rows); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 3 {
		t.Fatalf("%d bytes went out in %d writes, want at least 3 at %d bytes each", cw.n, cw.writes, statsFlushAt)
	}
}

// TestAppendStatsRowAllocFree: encoding a row into a buffer with room
// allocates nothing, so an export costs one buffer however many rows.
func TestAppendStatsRowAllocFree(t *testing.T) {
	s := &JobStats{JobID: "job-0001", Arrival: 12.5, Start: 40, Finish: 1e5 / 3, Fidelity: 0.71,
		CommTime: 2.25, Devices: 2, DeviceNames: []string{"ibm_quebec", "ibm_kyiv"},
		Source: "stdin", ConnID: 3}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = appendStatsRow(buf[:0], s) }); n != 0 {
		t.Errorf("appendStatsRow allocates %g/op, want 0", n)
	}
	if !strings.HasSuffix(string(buf), ",2,ibm_quebec+ibm_kyiv,stdin,,3\n") {
		t.Errorf("row = %q", buf)
	}
}

type countingWriter struct{ n, writes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	c.writes++
	return len(p), nil
}

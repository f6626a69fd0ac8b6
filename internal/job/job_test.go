package job

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestQJobValidate(t *testing.T) {
	good := &QJob{ID: "j1", NumQubits: 150, Depth: 10, Shots: 1000, TwoQubitGates: 375}
	if err := good.Validate(); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	if err := (&QJob{ID: "max", NumQubits: 150, Depth: 10, Shots: 1000, TwoQubitGates: maxTwoQubitGates}).Validate(); err != nil {
		t.Fatalf("job at the two-qubit gate bound rejected: %v", err)
	}
	cases := []func(*QJob){
		func(j *QJob) { j.ID = "" },
		func(j *QJob) { j.NumQubits = 0 },
		func(j *QJob) { j.Depth = 0 },
		func(j *QJob) { j.Shots = 0 },
		func(j *QJob) { j.TwoQubitGates = -1 },
		func(j *QJob) { j.TwoQubitGates = maxTwoQubitGates + 1 },
		func(j *QJob) { j.TwoQubitGates = math.MaxInt64 },
		func(j *QJob) { j.ArrivalTime = -1 },
	}
	for i, mutate := range cases {
		j := *good
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: bad job accepted", i)
		}
	}
	if !strings.Contains(good.String(), "j1") {
		t.Error("String() should include the ID")
	}
}

func TestSyntheticDefaultMatchesPaperRanges(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	jobs, err := Synthetic(cfg)
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	if len(jobs) != 1000 {
		t.Fatalf("jobs = %d, want 1000", len(jobs))
	}
	seenLow, seenHigh := false, false
	for _, j := range jobs {
		if j.NumQubits < 130 || j.NumQubits > 250 {
			t.Fatalf("%s: qubits %d outside [130,250]", j.ID, j.NumQubits)
		}
		if j.Depth < 5 || j.Depth > 20 {
			t.Fatalf("%s: depth %d outside [5,20]", j.ID, j.Depth)
		}
		if j.Shots < 10000 || j.Shots > 100000 {
			t.Fatalf("%s: shots %d outside [10k,100k]", j.ID, j.Shots)
		}
		if j.TwoQubitGates <= 0 {
			t.Fatalf("%s: no two-qubit gates", j.ID)
		}
		if j.NumQubits < 160 {
			seenLow = true
		}
		if j.NumQubits > 220 {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Fatal("qubit distribution does not cover the range")
	}
	// Arrival order.
	if !sort.SliceIsSorted(jobs, func(i, k int) bool {
		return jobs[i].ArrivalTime < jobs[k].ArrivalTime
	}) {
		t.Fatal("jobs not in arrival order")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	a, _ := Synthetic(cfg)
	b, _ := Synthetic(cfg)
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatal("same seed must give identical workloads")
		}
	}
	cfg.Seed = 2
	c, _ := Synthetic(cfg)
	diff := false
	for i := range a {
		if *a[i] != *c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestSyntheticZeroInterarrival(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.N = 10
	cfg.MeanInterarrival = 0
	jobs, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.ArrivalTime != 0 {
			t.Fatalf("%s arrives at %g, want 0", j.ID, j.ArrivalTime)
		}
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	mutations := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.N = 0 },
		func(c *SyntheticConfig) { c.MinQubits = 0 },
		func(c *SyntheticConfig) { c.MaxQubits = c.MinQubits - 1 },
		func(c *SyntheticConfig) { c.MinDepth = 0 },
		func(c *SyntheticConfig) { c.MaxDepth = 1 },
		func(c *SyntheticConfig) { c.MinShots = 0 },
		func(c *SyntheticConfig) { c.MaxShots = 1 },
		func(c *SyntheticConfig) { c.T2Factor = -1 },
		func(c *SyntheticConfig) { c.MeanInterarrival = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultSyntheticConfig()
		mutate(&cfg)
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCheckDistributedConstraint(t *testing.T) {
	jobs, _ := Synthetic(DefaultSyntheticConfig())
	// The case-study cloud: 5 devices x 127 qubits.
	if err := CheckDistributedConstraint(jobs, 127, 635); err != nil {
		t.Fatalf("default workload should satisfy Eq.1: %v", err)
	}
	small := []*QJob{{ID: "s", NumQubits: 100, Depth: 1, Shots: 1}}
	if err := CheckDistributedConstraint(small, 127, 635); err == nil {
		t.Fatal("single-device job should violate the lower bound")
	}
	huge := []*QJob{{ID: "h", NumQubits: 700, Depth: 1, Shots: 1}}
	if err := CheckDistributedConstraint(huge, 127, 635); err == nil {
		t.Fatal("oversized job should violate the upper bound")
	}
}

const sampleCSV = `job_id,num_qubits,depth,num_shots,arrival_time,two_qubit_gates
j1,150,10,50000,0,375
j2,200,8,20000,30.5,400
j3,130,5,10000,10,
`

func TestLoadCSV(t *testing.T) {
	jobs, err := LoadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	// Sorted by arrival: j1 (0), j3 (10), j2 (30.5).
	if jobs[0].ID != "j1" || jobs[1].ID != "j3" || jobs[2].ID != "j2" {
		t.Fatalf("order: %v %v %v", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
	if jobs[0].TwoQubitGates != 375 {
		t.Fatalf("explicit t2 = %d", jobs[0].TwoQubitGates)
	}
	// j3 defaults t2 = round(0.25*130*5) = 163.
	if jobs[1].TwoQubitGates != 163 {
		t.Fatalf("defaulted t2 = %d, want 163", jobs[1].TwoQubitGates)
	}
}

func TestLoadCSVNoHeader(t *testing.T) {
	jobs, err := LoadCSV(strings.NewReader("a,100,5,1000,0\nb,120,6,2000,5\n"))
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (header misdetected?)", len(jobs))
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"job_id,num_qubits\n",     // header only
		"j1,abc,5,100,0\n",        // bad qubits
		"j1,100,x,100,0\n",        // bad depth
		"j1,100,5,x,0\n",          // bad shots
		"j1,100,5,100,zz\n",       // bad arrival
		"j1,100,5,100,0,notint\n", // bad t2
		"j1,100\n",                // too few fields
		"j1,0,5,100,0\n",          // invalid job
	}
	for i, c := range cases {
		if _, err := LoadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

// TestLoadCSVErrorNamesLine: a bad record is named by the file line it
// starts on, on both the hand-split and the encoding/csv path.
func TestLoadCSVErrorNamesLine(t *testing.T) {
	for _, src := range []string{
		"a,140,5,1000,0\n\n\nb,140,5,1000,1\n\nc,0,5,1000,2\n",
		"a,140,5,1000,0\r\n\r\n\r\nb,140,5,1000,1\r\n\r\nc,0,5,1000,2\r\n",
		"\"a\nstill a\",140,5,1000,0\n\nb,140,5,1000,1\n\nc,0,5,1000,2",
	} {
		_, err := LoadCSV(strings.NewReader(src))
		if want := "job: CSV line 6: job c: 0 qubits"; err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	src := `[
	  {"job_id":"a","num_qubits":150,"depth":10,"num_shots":1000,"arrival_time":5.5},
	  {"job_id":"b","num_qubits":140,"depth":8,"num_shots":2000,"two_qubit_gates":42}
	]`
	jobs, err := LoadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatalf("LoadJSON: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	// b has no arrival => 0 => sorts first.
	if jobs[0].ID != "b" || jobs[0].TwoQubitGates != 42 {
		t.Fatalf("first job: %+v", jobs[0])
	}
	if jobs[1].TwoQubitGates != 375 { // round(0.25*150*10 + 0.5) truncated: int(375.5)=375
		t.Fatalf("defaulted t2 = %d", jobs[1].TwoQubitGates)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	cases := []string{
		`[]`,
		`{}`,
		`[{"job_id":"a","num_qubits":0,"depth":1,"num_shots":1}]`,
		`[{"job_id":"a","unknown_field":1}]`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := LoadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad JSON accepted", i)
		}
	}
}

func TestLoadRejectsRepeatedJobID(t *testing.T) {
	cases := []struct {
		name string
		load func(io.Reader) ([]*QJob, error)
		src  string
		want string
	}{
		{"csv", LoadCSV,
			"job_id,num_qubits,depth,num_shots,arrival_time\na,5,10,100,0\nb,5,10,100,1\na,6,10,100,2\n",
			`job: CSV lines 2 and 4 both have job_id "a"`},
		// Blank lines count: the numbers are file lines, not records.
		{"csv-blank-lines", LoadCSV,
			"a,140,5,1000,0\n\n\nb,140,5,1000,1\na,150,5,1000,2\n",
			`job: CSV lines 1 and 5 both have job_id "a"`},
		// A quoted field sends the input through encoding/csv.
		{"csv-quoted-blank-lines", LoadCSV,
			"\"a\",140,5,1000,0\n\n\nb,140,5,1000,1\na,150,5,1000,2\n",
			`job: CSV lines 1 and 5 both have job_id "a"`},
		{"json", LoadJSON, `[
		  {"job_id":"x","num_qubits":5,"depth":10,"num_shots":100},
		  {"job_id":"a","num_qubits":5,"depth":10,"num_shots":100,"arrival_time":3},
		  {"job_id":"a","num_qubits":6,"depth":10,"num_shots":100,"arrival_time":1}
		]`, `job: JSON entries 2 and 3 both have job_id "a"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs, err := c.load(strings.NewReader(c.src))
			if err == nil || err.Error() != c.want {
				t.Fatalf("got %d jobs, error %v; want error %q", len(jobs), err, c.want)
			}
		})
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.N = 25
	orig, _ := Synthetic(cfg)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	loaded, err := LoadCSV(&buf)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if len(loaded) != len(orig) {
		t.Fatalf("round trip count: %d vs %d", len(loaded), len(orig))
	}
	for i := range orig {
		if *loaded[i] != *orig[i] {
			t.Fatalf("job %d changed: %v vs %v", i, loaded[i], orig[i])
		}
	}
}

func TestSortByArrivalStable(t *testing.T) {
	jobs := []*QJob{
		{ID: "c", ArrivalTime: 5},
		{ID: "a", ArrivalTime: 5},
		{ID: "b", ArrivalTime: 1},
	}
	SortByArrival(jobs)
	if jobs[0].ID != "b" || jobs[1].ID != "c" || jobs[2].ID != "a" {
		t.Fatalf("order: %s %s %s", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
}

// Property: every synthetic workload satisfies Eq. 1 against the standard
// cloud and respects its configured ranges.
func TestPropertySyntheticRespectsRanges(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		cfg := DefaultSyntheticConfig()
		cfg.N = int(nRaw%50) + 1
		cfg.Seed = seed
		jobs, err := Synthetic(cfg)
		if err != nil {
			return false
		}
		if CheckDistributedConstraint(jobs, 127, 635) != nil {
			return false
		}
		for _, j := range jobs {
			if j.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Quantile(sorted, 0) != 10 || Quantile(sorted, 1) != 40 {
		t.Fatal("extremes wrong")
	}
	if got := Quantile(sorted, 0.5); math.Abs(got-25) > 1e-12 {
		t.Fatalf("median = %g, want 25", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty quantile should panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0.05, 0.15, 0.15, 0.95}, 0, 1, 10)
	if h.Total != 4 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if math.Abs(h.Mode()-0.15) > 1e-12 {
		t.Fatalf("mode = %g", h.Mode())
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram([]float64{-5, 5}, 0, 1, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestHistogramEdgeValue(t *testing.T) {
	// x == Hi must land in the last bin, not out of range.
	h := NewHistogram([]float64{1.0}, 0, 1, 10)
	if h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestHistogramValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRenderASCII(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.1, 0.9}, 0, 1, 2)
	var buf bytes.Buffer
	if err := h.RenderASCII(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "##########") {
		t.Fatalf("fullest bin should have a full bar: %q", lines[0])
	}
	if strings.Count(lines[1], "#") != 5 {
		t.Fatalf("half-full bin should have half bar: %q", lines[1])
	}
}

func TestHistogramCSV(t *testing.T) {
	h := NewHistogram([]float64{0.25, 0.75}, 0, 1, 2)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "bin_lo,bin_hi,count\n0,0.5,1\n0.5,1,1\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestSeriesCSV(t *testing.T) {
	a := &Series{Name: "reward"}
	b := &Series{Name: "entropy"}
	a.Append(1, 0.5)
	a.Append(2, 0.6)
	b.Append(1, -7)
	b.Append(2, -5)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	want := "x,reward,entropy\n1,0.5,-7\n2,0.6,-5\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q", buf.String())
	}
}

func TestSeriesCSVErrors(t *testing.T) {
	if err := WriteSeriesCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("no series should error")
	}
	a := &Series{Name: "a", X: []float64{1}, Y: []float64{1}}
	b := &Series{Name: "b", X: []float64{1, 2}, Y: []float64{1, 2}}
	if err := WriteSeriesCSV(&bytes.Buffer{}, a, b); err == nil {
		t.Fatal("mismatched series should error")
	}
}

// Property: histogram total always equals the sample size and counts are
// conserved regardless of values.
func TestPropertyHistogramConservation(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 16
		}
		h := NewHistogram(xs, -1, 1, 13)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(xs) && h.Total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize bounds — Min <= P05 <= Median <= P95 <= Max and
// Min <= Mean <= Max.
func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.P05 && s.P05 <= s.Median && s.Median <= s.P95 &&
			s.P95 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

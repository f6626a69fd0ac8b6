// Package stats provides the statistics and plotting substrate for the
// experiment harness: summaries and quantiles, histograms (the paper's
// Fig. 6 fidelity distributions), ASCII rendering for terminal output,
// CSV emission for external plotting, and the inference layer behind
// replication — AggregateSamples (mean, sample std, stderr, Student-t
// 95% CI) and Welch / WelchSignificant, the two-sample t-test the
// records significance gates build on.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max, Median float64
	P05, P95         float64
}

// Summarize computes a Summary. The standard deviation is the
// population form (divide by n), matching the paper's σF over the jobs
// of one run — the run's jobs ARE the population being described. This
// deliberately differs from AggregateSamples, which treats its inputs
// as a sample of replicated runs and divides by n−1; both feed the same
// manifests, so the distinction matters when comparing columns: a
// manifest row's fidelity_std is population σF, while an aggregated
// manifest's per-metric Std is the sample standard deviation across
// seeds. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Aggregate summarizes replicated measurements of one metric: the
// sample mean, the sample (n−1) standard deviation, and the half-width
// of the 95% confidence interval for the mean (Student's t), so
// replicated experiment artifacts report mean ± CI95.
type Aggregate struct {
	N         int
	Mean, Std float64
	CI95      float64
	// StdErr is Std/√N, the standard error of the mean.
	StdErr float64
}

// tCrit975 holds two-tailed 95% Student-t critical values for 1..30
// degrees of freedom; beyond the table tCrit975Tail approximates the
// tail so the factor decays smoothly toward the normal 1.96 instead of
// jumping at the table boundary.
var tCrit975 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit975Tail is the first-order Cornish–Fisher expansion of the t
// critical value around the normal quantile z=1.960: t ≈ z + (z³+z)/(4·df).
// Accurate to ~0.2% for df > 30 and monotone decreasing toward 1.960.
func tCrit975Tail(df float64) float64 {
	const z = 1.960
	return z + (z*z*z+z)/(4*df)
}

// AggregateSamples computes an Aggregate over replicated measurements.
// The standard deviation is the sample (n−1) form — replications are a
// sample of the seed distribution, not the population — in contrast to
// Summarize's population σ (see its doc for why both conventions feed
// the same manifests). Samples of size < 2 have zero Std, StdErr and
// CI95 (no dispersion estimate).
func AggregateSamples(xs []float64) Aggregate {
	a := Aggregate{N: len(xs)}
	if len(xs) == 0 {
		return a
	}
	for _, x := range xs {
		a.Mean += x
	}
	a.Mean /= float64(len(xs))
	if len(xs) < 2 {
		return a
	}
	ss := 0.0
	for _, x := range xs {
		d := x - a.Mean
		ss += d * d
	}
	a.Std = math.Sqrt(ss / float64(len(xs)-1))
	a.StdErr = a.Std / math.Sqrt(float64(len(xs)))
	a.CI95 = TCrit975(float64(len(xs)-1)) * a.StdErr
	return a
}

// TCrit975 returns the two-tailed 95% Student-t critical value for df
// degrees of freedom. Fractional df (Welch–Satterthwaite) interpolate
// linearly between the tabulated integer values; beyond the df=30
// table the Cornish–Fisher tail keeps the factor decaying smoothly
// toward the normal 1.96 (within ~0.2% of the exact value) instead of
// jumping at the table boundary. It panics on df <= 0: no dispersion
// estimate exists without at least one degree of freedom.
func TCrit975(df float64) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: TCrit975 with %g degrees of freedom", df))
	}
	n := len(tCrit975)
	if df > float64(n) {
		return tCrit975Tail(df)
	}
	lo := int(df)
	frac := df - float64(lo)
	if lo < 1 {
		// df in (0,1): clamp to the df=1 row rather than extrapolating
		// past the table's steepest end.
		return tCrit975[0]
	}
	if frac == 0 || lo >= n {
		return tCrit975[lo-1]
	}
	return tCrit975[lo-1]*(1-frac) + tCrit975[lo]*frac
}

// Quantile returns the q-quantile (0..1) of a sorted sample using
// linear interpolation. It has two contracts: the sample must be
// non-empty (an empty sample panics), and it must already be sorted
// ascending — Quantile does not sort and returns meaningless values on
// unsorted input, so sorting is the caller's responsibility.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width binned distribution.
type Histogram struct {
	// Lo and Hi bound the histogram range; values outside are clamped
	// into the first/last bin.
	Lo, Hi float64
	// Counts holds per-bin tallies.
	Counts []int
	// Total is the number of samples binned.
	Total int
}

// NewHistogram bins xs into `bins` equal-width bins over [lo, hi].
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: %d bins", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram range [%g,%g]", lo, hi))
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add bins one sample (clamped into range).
func (h *Histogram) Add(x float64) {
	bin := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.Total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// BinEdges returns the lower edge of bin i (and Hi for i == len(Counts)).
func (h *Histogram) BinEdges(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*float64(i)
}

// Mode returns the center of the fullest bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// RenderASCII draws the histogram as a horizontal bar chart, one row per
// bin, scaled to width characters.
func (h *Histogram) RenderASCII(w io.Writer, width int) error {
	if width <= 0 {
		width = 50
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	for i, c := range h.Counts {
		barLen := 0
		if max > 0 {
			barLen = c * width / max
		}
		if _, err := fmt.Fprintf(w, "[%.4f, %.4f) %6d %s\n",
			h.BinEdges(i), h.BinEdges(i+1), c, strings.Repeat("#", barLen)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits bin_lo,bin_hi,count rows with a header.
func (h *Histogram) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "bin_lo,bin_hi,count"); err != nil {
		return err
	}
	for i, c := range h.Counts {
		if _, err := fmt.Fprintf(w, "%g,%g,%d\n", h.BinEdges(i), h.BinEdges(i+1), c); err != nil {
			return err
		}
	}
	return nil
}

// Series is a named (x, y) sequence, used for training curves (Fig. 5).
type Series struct {
	Name string
	X, Y []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// WriteSeriesCSV emits aligned series as CSV: x,name1,name2,... All
// series must share the same X values.
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("stats: no series")
	}
	n := len(series[0].X)
	header := []string{"x"}
	for _, s := range series {
		if len(s.X) != n || len(s.Y) != n {
			return fmt.Errorf("stats: series %q length mismatch", s.Name)
		}
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%g", s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

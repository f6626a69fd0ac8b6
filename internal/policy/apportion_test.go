package policy

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceApportion is Apportion as it stood before its candidates
// moved to the stack and sort.SliceStable gave way to an insertion
// sort, kept as an executable specification (validation elided: the
// test feeds it valid input only).
func referenceApportion(q int, weights []float64, caps []int) []int {
	totalCap := 0
	for _, c := range caps {
		totalCap += c
	}
	if totalCap < q {
		return nil
	}
	shares := make([]int, len(caps))
	remaining := q
	for pass := 0; pass < 2 && remaining > 0; pass++ {
		for remaining > 0 {
			type cand struct {
				idx  int
				w    float64
				room int
			}
			var active []cand
			var wSum float64
			for i := range caps {
				room := caps[i] - shares[i]
				if room <= 0 {
					continue
				}
				w := weights[i]
				if pass == 1 {
					w = float64(room)
				}
				if w <= 0 {
					continue
				}
				active = append(active, cand{i, w, room})
				wSum += w
			}
			if len(active) == 0 {
				break
			}
			type frac struct {
				idx  int
				base int
				rem  float64
			}
			fr := make([]frac, len(active))
			baseSum := 0
			for k, c := range active {
				ideal := c.w / wSum * float64(remaining)
				base := int(ideal)
				fr[k] = frac{idx: k, base: base, rem: ideal - float64(base)}
				baseSum += base
			}
			leftover := remaining - baseSum
			order := make([]int, len(fr))
			for k := range order {
				order[k] = k
			}
			sort.SliceStable(order, func(a, b int) bool {
				if fr[order[a]].rem != fr[order[b]].rem {
					return fr[order[a]].rem > fr[order[b]].rem
				}
				return active[order[a]].idx < active[order[b]].idx
			})
			for _, k := range order {
				if leftover == 0 {
					break
				}
				fr[k].base++
				leftover--
			}
			granted := 0
			for k, c := range active {
				g := fr[k].base
				if g > c.room {
					g = c.room
				}
				shares[c.idx] += g
				granted += g
			}
			remaining -= granted
			if granted == 0 {
				break
			}
		}
	}
	return shares
}

// TestApportionMatchesReference compares Apportion with the reference
// over random quantities, weights and caps: fleets from 1 to 40 devices
// (past the 16-slot stack buffer), zero weights (so pass 2 spills onto
// them), caps that bind, ties in remainders, and jobs that do not fit.
func TestApportionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var spilled, wide int
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		if trial%5 == 0 {
			n = 1 + rng.Intn(40)
		}
		weights := make([]float64, n)
		caps := make([]int, n)
		totalCap, posCap := 0, 0
		for i := range weights {
			switch rng.Intn(4) {
			case 0: // zero weight: reached only by pass 2
			case 1: // small integers: equal weights tie on remainder
				weights[i] = float64(1 + rng.Intn(3))
			default:
				weights[i] = rng.ExpFloat64() * 1e5
			}
			caps[i] = rng.Intn(140)
			totalCap += caps[i]
			if weights[i] > 0 {
				posCap += caps[i]
			}
		}
		q := rng.Intn(totalCap + 20)
		got := Apportion(q, weights, caps)
		want := referenceApportion(q, weights, caps)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Apportion(%d, %v, %v) = %v, reference %v", q, weights, caps, got, want)
		}
		if got != nil && q > posCap {
			spilled++
		}
		if n > maxStackDevices {
			wide++
		}
	}
	if spilled == 0 || wide == 0 {
		t.Fatalf("coverage: %d pass-2 spills, %d fleets over %d devices", spilled, wide, maxStackDevices)
	}
}

// TestApportionAllocatesOnlyItsResult pins Apportion at one allocation,
// the returned shares, on a table2-shaped decision.
func TestApportionAllocatesOnlyItsResult(t *testing.T) {
	weights := []float64{0.9, 0.1, 0, 0.5, 1}
	caps := []int{127, 127, 60, 127, 90}
	if n := testing.AllocsPerRun(100, func() { Apportion(250, weights, caps) }); n != 1 {
		t.Errorf("Apportion allocates %g/op, want 1", n)
	}
}

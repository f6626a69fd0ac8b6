package policy

import "fmt"

// Apportion divides q units across devices proportionally to weights,
// respecting per-device caps. It implements the largest-remainder
// (Hamilton) method with cap-and-redistribute: shares are proportional
// to weight, rounded so they sum exactly to q, and any share that would
// exceed its cap is clamped with the excess re-apportioned among the
// remaining devices. Devices with zero weight receive units only when
// the positive-weight devices cannot hold the whole job.
//
// It returns nil when Σcaps < q. Otherwise the result always sums to q
// with 0 ≤ share_i ≤ caps_i. The procedure is deterministic: ties in
// fractional remainders break toward the lower index.
func Apportion(q int, weights []float64, caps []int) []int {
	if len(weights) != len(caps) {
		panic(fmt.Sprintf("policy: %d weights vs %d caps", len(weights), len(caps)))
	}
	if q < 0 {
		panic(fmt.Sprintf("policy: negative quantity %d", q))
	}
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("policy: negative weight %g at %d", w, i))
		}
		if caps[i] < 0 {
			panic(fmt.Sprintf("policy: negative cap %d at %d", caps[i], i))
		}
	}
	totalCap := 0
	for _, c := range caps {
		totalCap += c
	}
	if totalCap < q {
		return nil
	}
	shares := make([]int, len(caps))
	remaining := q
	// The candidates of one round live on the stack for fleets up to
	// maxStackDevices; a larger fleet spills them to the heap.
	var buf [maxStackDevices]apportionCand
	active := buf[:0]
	// Pass 1: positive-weight devices. Pass 2 (if needed): all devices
	// weighted by remaining cap.
	for pass := 0; pass < 2 && remaining > 0; pass++ {
		for remaining > 0 {
			active = active[:0]
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
				active = append(active, apportionCand{idx: i, w: w, room: room})
				wSum += w
			}
			if len(active) == 0 {
				break // fall through to next pass
			}
			// Largest-remainder apportionment of `remaining` over active.
			baseSum := 0
			for k := range active {
				c := &active[k]
				ideal := c.w / wSum * float64(remaining)
				c.base = int(ideal)
				c.rem = ideal - float64(c.base)
				baseSum += c.base
			}
			leftover := remaining - baseSum
			sortByRemainder(active)
			for k := range active {
				if leftover == 0 {
					break
				}
				active[k].base++
				leftover--
			}
			// Grant clamped to room.
			granted := 0
			for _, c := range active {
				g := min(c.base, c.room)
				shares[c.idx] += g
				granted += g
			}
			remaining -= granted
			if granted == 0 {
				break // caps on weighted devices exhausted
			}
		}
	}
	if remaining > 0 {
		// Unreachable given totalCap >= q: pass 2 weights by room.
		panic(fmt.Sprintf("policy: apportion left %d units unassigned", remaining))
	}
	return shares
}

// apportionCand is one device taking part in an Apportion round: its
// fleet index, weight and remaining room, then its floor share and the
// fractional remainder that ranks it for the leftover units.
type apportionCand struct {
	idx  int
	w    float64
	room int
	base int
	rem  float64
}

// sortByRemainder orders candidates by descending remainder, ties toward
// the lower fleet index. It is a stable insertion sort: fleets are a
// handful of devices, and it needs no closure or index slice.
func sortByRemainder(cs []apportionCand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && remainderBefore(&cs[j], &cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// remainderBefore is the leftover-unit ranking: larger remainder first,
// then lower fleet index.
func remainderBefore(a, b *apportionCand) bool {
	if a.rem != b.rem {
		return a.rem > b.rem
	}
	return a.idx < b.idx
}

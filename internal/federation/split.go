package federation

import "sort"

// Split apportions target units across weights proportionally using the
// largest-remainder (Hamilton) method, guaranteeing the shares sum to
// exactly target. Each share is the floor or the ceiling of its exact
// proportional value.
//
// Leftover units after the floor pass go to the largest remainders.
// Remainders are compared as exact integer fractions (target·w mod
// total), so ties are detected precisely, and a tie breaks toward the
// larger weight and then the lower index: with idle populations [1, 3]
// and target 2 the heavier network takes the spare unit ([0, 2]), where
// a first-come scan would skew the small fleet onto the light network
// ([1, 1]).
//
// Negative weights count as zero. A weight vector that sums to zero
// carries no information: the target spreads evenly, remainder to the
// lowest indices.
func Split(target int, weights []int) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 || target <= 0 {
		return out
	}
	total := int64(0)
	for _, w := range weights {
		if w > 0 {
			total += int64(w)
		}
	}
	if total == 0 {
		for i := range out {
			out[i] = target / n
		}
		for i := 0; i < target%n; i++ {
			out[i]++
		}
		return out
	}
	type entry struct {
		idx    int
		weight int
		rem    int64 // target·w mod total: the exact remainder numerator
	}
	entries := make([]entry, n)
	assigned := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := int64(target) * int64(w)
		out[i] = int(exact / total)
		assigned += out[i]
		entries[i] = entry{idx: i, weight: w, rem: exact % total}
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if ea.rem != eb.rem {
			return ea.rem > eb.rem
		}
		if ea.weight != eb.weight {
			return ea.weight > eb.weight
		}
		return ea.idx < eb.idx
	})
	for i := 0; i < target-assigned; i++ {
		out[entries[i].idx]++
	}
	return out
}

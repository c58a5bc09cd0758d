package loss

import (
	"sort"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stats"
)

// Levenshtein returns the edit distance between a and b (unit costs for
// insertion, deletion and substitution), using O(min(len)) memory.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditDistance is a loss for string-like categorical properties (Section
// 2.4's "edit distance for text data"): the deviation between two category
// values is their Levenshtein distance normalized by the longer length, so
// near-miss strings ("B12" vs "B-12") are penalized less than unrelated
// ones. The truth is the weighted medoid: the observed category minimizing
// the total weighted distance to all observations.
type EditDistance struct{}

// Name implements Categorical.
func (EditDistance) Name() string { return "edit-distance" }

// NeedsDist implements Categorical: the medoid is a hard decision.
func (EditDistance) NeedsDist() bool { return false }

// Truth implements Categorical by weighted-medoid selection over the
// observed categories. O(u²) in the number of distinct observed values.
func (EditDistance) Truth(codes []uint32, ws []float64, _, _ []float64, p *data.Property) int {
	if len(codes) == 0 {
		return -1
	}
	// Pool weights per distinct category first; typical entries have few
	// distinct claims even with many observers.
	weight := make(map[int]float64, 4)
	for j, c := range codes {
		weight[int(c)] += ws[j]
	}
	// Iterate candidates in sorted order: map order would vary the cost
	// summation order (and thus its rounding) run to run, and the medoid
	// choice must be deterministic.
	cands := make([]int, 0, len(weight))
	for c := range weight {
		cands = append(cands, c)
	}
	sort.Ints(cands)
	best, bestCost := -1, 0.0
	for _, cand := range cands {
		var cost float64
		for _, c := range cands {
			cost += weight[c] * normEdit(p.CatName(cand), p.CatName(c))
		}
		// Costs that differ only by accumulation rounding are ties; the
		// smallest candidate (already held, cands being sorted) wins.
		if best == -1 || (cost < bestCost && !stats.ApproxEq(cost, bestCost)) {
			best, bestCost = cand, cost
		}
	}
	return best
}

// Deviation implements Categorical.
func (EditDistance) Deviation(truth int, _ []float64, obs int, p *data.Property) float64 {
	if truth < 0 {
		return 1
	}
	return normEdit(p.CatName(truth), p.CatName(obs))
}

func normEdit(a, b string) float64 {
	if a == b {
		return 0
	}
	la, lb := len([]rune(a)), len([]rune(b))
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(n)
}

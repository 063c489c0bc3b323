// Package pareto provides generic Pareto-dominance utilities over
// two-objective minimization problems — in the ASIC Cloud flow the two
// objectives are hardware cost per op/s ($ per op/s) and energy per op
// (W per op/s), and "designs can be evaluated according to these metrics,
// and mapped into a Pareto space that trades cost and energy efficiency".
//
// All functions order NaN explicitly: a NaN objective ranks after every
// real value, so a degenerate point can never dominate, never wins an
// ArgMin, and never appears on a Frontier. Without that rule IEEE
// comparison semantics poison the fold — `v < NaN` is always false, so a
// leading NaN would win ArgMin forever, and a NaN coordinate could never
// be dominated away.
package pareto

import (
	"cmp"
	"math"
	"slices"
)

// Compare orders two float64s with NaN ranking after every real value
// (and equal to another NaN). It returns -1, 0 or +1. This is the total
// order every function in this package uses, exported so callers that
// sort or tie-break the same objective values stay consistent with the
// frontier's view of them.
func Compare(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Dominates reports whether point a = (ax, ay) dominates b = (bx, by)
// under minimization of both coordinates: a is no worse in both and
// strictly better in at least one. NaN coordinates rank worse than
// everything (see Compare), so a point with a NaN coordinate never
// dominates, and is dominated by any point no worse on the other
// coordinate.
func Dominates(ax, ay, bx, by float64) bool {
	cx, cy := Compare(ax, bx), Compare(ay, by)
	if cx > 0 || cy > 0 {
		return false
	}
	return cx < 0 || cy < 0
}

// Frontier returns the indices of the Pareto-optimal elements of pts
// under minimization of both objective functions, sorted by ascending x.
// Ties on both coordinates keep the first-seen element only. Points with
// a NaN objective are filtered out: they rank worse than every real
// point, so they are Pareto-optimal only in a degenerate all-NaN set,
// where an empty frontier is the honest answer.
//
// Each objective is evaluated once per element; the ordering work runs
// on the resulting keys (see FrontierKeys).
func Frontier[T any](pts []T, x, y func(T) float64) []int {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i := range pts {
		xs[i], ys[i] = x(pts[i]), y(pts[i])
	}
	return FrontierKeys(xs, ys)
}

// FrontierKeys is Frontier over precomputed objective keys: element i
// has objectives (xs[i], ys[i]), and the result is the same index list
// Frontier returns for those values. xs and ys must have equal length;
// neither is modified.
func FrontierKeys(xs, ys []float64) []int {
	idx := make([]int, 0, len(xs))
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		idx = append(idx, i)
	}
	// (x asc, y asc, index asc): the index tie-break makes the order
	// total, so the unstable sort keeps the first-seen duplicate first,
	// exactly as a stable (x, y) sort would.
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(xs[a], xs[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(ys[a], ys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var out []int
	for _, i := range idx {
		// In (x asc, y asc) order a point extends the frontier exactly
		// when it strictly improves y; everything else — including exact
		// duplicates of the previous frontier point — is dominated or
		// tied and skipped.
		if len(out) == 0 || ys[i] < ys[out[len(out)-1]] {
			out = append(out, i)
		}
	}
	return out
}

// Select returns the elements of pts at the given indices.
func Select[T any](pts []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, pts[i])
	}
	return out
}

// ArgMin returns the index of the element minimizing f. It returns -1
// for an empty slice or when every value is NaN; NaN values are never
// minimal (see Compare).
func ArgMin[T any](pts []T, f func(T) float64) int {
	best := -1
	var bestV float64
	for i := range pts {
		v := f(pts[i])
		if math.IsNaN(v) {
			continue
		}
		if best < 0 || v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

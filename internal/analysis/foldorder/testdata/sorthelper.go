// Fixture for foldorder's interprocedural sanitizers: a module-local
// helper that sorts its argument in place, or returns a slice a sort
// produced, restores a canonical order exactly as a direct sort.* call
// does.
package fixture

import (
	"encoding/json"
	"slices"
	"sort"
)

type result struct {
	ID  int
	TCO float64
}

func drain(ch <-chan result, n int) []result {
	var out []result
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	return out
}

// sortByID sorts its argument in place.
func sortByID(rs []result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
}

// canonicalize sorts through a second helper: the summary composes.
func canonicalize(rs []result) {
	sortByID(rs)
}

// sortedCopy returns a sorted copy and leaves its argument alone.
func sortedCopy(rs []result) []result {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b result) int { return a.ID - b.ID })
	return out
}

// logAll reads its argument without reordering it.
func logAll(rs []result) int { return len(rs) }

// sortSometimes sorts only on one path, so it cannot vouch for the
// caller's order.
func sortSometimes(rs []result, ok bool) {
	if ok {
		sortByID(rs)
	}
}

// --- positives ---------------------------------------------------------

// helperDoesNotSort passes the drained slice through a helper that
// never sorts it.
func helperDoesNotSort(ch <-chan result, n int) ([]byte, error) {
	rs := drain(ch, n)
	logAll(rs)
	return json.Marshal(rs) // want: fold-order reaches json.Marshal
}

// conditionalSort sorts on one path only.
func conditionalSort(ch <-chan result, n int, ok bool) ([]byte, error) {
	rs := drain(ch, n)
	sortSometimes(rs, ok)
	return json.Marshal(rs) // want: fold-order reaches json.Marshal
}

// copyLeavesArgument sorts a copy but emits the original.
func copyLeavesArgument(ch <-chan result, n int) ([]byte, error) {
	rs := drain(ch, n)
	_ = sortedCopy(rs)
	return json.Marshal(rs) // want: fold-order reaches json.Marshal
}

// --- negatives ---------------------------------------------------------

// helperSortsInPlace is the idiom the sweep engine uses: a helper owns
// the canonical order.
func helperSortsInPlace(ch <-chan result, n int) ([]byte, error) {
	rs := drain(ch, n)
	sortByID(rs)
	return json.Marshal(rs)
}

// nestedHelperSorts sorts two calls down.
func nestedHelperSorts(ch <-chan result, n int) ([]byte, error) {
	rs := drain(ch, n)
	canonicalize(rs)
	return json.Marshal(rs)
}

// helperReturnsSorted emits the sorted copy a helper returns.
func helperReturnsSorted(ch <-chan result, n int) ([]byte, error) {
	return json.Marshal(sortedCopy(drain(ch, n)))
}

package pareto

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specials are the coordinates a frontier most easily gets wrong: NaN
// (never on a frontier), the infinities, and signed zeros, which
// compare equal.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}

// keysFromBytes decodes fuzz input into an objective pair per element.
// Each byte picks a special value or one of eight small integers, so
// exact ties and duplicates are common.
func keysFromBytes(data []byte) (xs, ys []float64) {
	coord := func(b byte) float64 {
		if int(b%16) < len(specials) {
			return specials[b%16]
		}
		return float64(b % 8)
	}
	for i := 0; i+1 < len(data); i += 2 {
		xs = append(xs, coord(data[i]))
		ys = append(ys, coord(data[i+1]))
	}
	return xs, ys
}

// bruteFrontier is the O(n²) oracle: element i is on the frontier when
// neither objective is NaN, no element dominates it, and no earlier
// element has identical coordinates. The result is ordered by x.
func bruteFrontier(xs, ys []float64) []int {
	var out []int
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			continue
		}
		on := true
		for j := range xs {
			if Dominates(xs[j], ys[j], xs[i], ys[i]) ||
				(j < i && xs[j] == xs[i] && ys[j] == ys[i]) {
				on = false
				break
			}
		}
		if on {
			out = append(out, i)
		}
	}
	// Frontier points have pairwise distinct x (equal x means one
	// dominates or duplicates the other), so this order is total.
	slices.SortFunc(out, func(a, b int) int { return Compare(xs[a], xs[b]) })
	return out
}

func FuzzFrontier(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1})
	f.Add([]byte{7, 9, 9, 7, 7, 9, 3, 3, 2, 4, 4, 2})
	f.Add([]byte{1, 6, 2, 1, 3, 2, 4, 6, 5, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, ys := keysFromBytes(data)
		want := bruteFrontier(xs, ys)
		if got := FrontierKeys(xs, ys); !slices.Equal(got, want) {
			t.Fatalf("FrontierKeys(%v, %v) = %v, want %v", xs, ys, got, want)
		}
		pts := make([]pt, len(xs))
		for i := range xs {
			pts[i] = pt{xs[i], ys[i]}
		}
		if got := Frontier(pts, func(p pt) float64 { return p.x }, func(p pt) float64 { return p.y }); !slices.Equal(got, want) {
			t.Fatalf("Frontier(%v) = %v, want %v", pts, got, want)
		}
	})
}

// keyed is a point with an identity, so a fold test can tell exact
// duplicates apart.
type keyed struct {
	x, y float64
	id   int
}

// bruteRetained is the fold oracle: every element with no NaN objective
// that no element dominates, exact duplicates included, as sorted
// (x, y, id) triples.
func bruteRetained(pts []keyed) []keyed {
	var out []keyed
	for _, p := range pts {
		if math.IsNaN(p.x) || math.IsNaN(p.y) {
			continue
		}
		dominated := false
		for _, q := range pts {
			if Dominates(q.x, q.y, p.x, p.y) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sortKeyed(out)
	return out
}

func sortKeyed(pts []keyed) {
	slices.SortFunc(pts, func(a, b keyed) int {
		if c := Compare(a.x, b.x); c != 0 {
			return c
		}
		if c := Compare(a.y, b.y); c != 0 {
			return c
		}
		return a.id - b.id
	})
}

// TestFoldMatchesBruteForce folds random clouds — NaN, infinities,
// signed zeros, exact duplicates — into several worker folds, merges
// them into one, and checks the retained multiset against the O(n²)
// oracle, for both the merged fold and a single fold fed everything.
func TestFoldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 {
		if rng.Intn(5) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float64(rng.Intn(12))
	}
	xk := func(p keyed) float64 { return p.x }
	yk := func(p keyed) float64 { return p.y }
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80)
		pts := make([]keyed, 0, n)
		for i := 0; i < n; i++ {
			p := keyed{coord(), coord(), i}
			if i > 0 && rng.Intn(6) == 0 {
				q := pts[rng.Intn(i)]
				p.x, p.y = q.x, q.y // exact duplicate of an earlier point
			}
			pts = append(pts, p)
		}
		want := bruteRetained(pts)

		single := NewFold(xk, yk)
		parts := make([]*Fold[keyed], 1+rng.Intn(4))
		for i := range parts {
			parts[i] = NewFold(xk, yk)
		}
		for _, p := range pts {
			single.Add(p)
			parts[rng.Intn(len(parts))].Add(p)
		}
		merged := NewFold(xk, yk)
		for _, i := range rng.Perm(len(parts)) {
			merged.Merge(parts[i])
		}
		for name, f := range map[string]*Fold[keyed]{"single": single, "merged": merged} {
			got := f.Points()
			if f.Len() != len(got) {
				t.Fatalf("trial %d %s: Len %d != %d points", trial, name, f.Len(), len(got))
			}
			sortKeyed(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: retained %v, want %v", trial, name, got, want)
			}
		}
	}
}

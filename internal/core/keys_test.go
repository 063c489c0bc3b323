package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"asiccloud/internal/pareto"
	"asiccloud/internal/tco"
)

// sortByLessPoint is the reference order: a plain sort.Slice over whole
// Points with lessPoint.
func sortByLessPoint(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return lessPoint(&pts[i], &pts[j]) })
}

// sortShuffled sorts a shuffled copy of pts the way the retaining
// sweep does: cut into random-size chunks (some empty), as workers hand
// them over, then gathered by sortedPoints.
func sortShuffled(rng *rand.Rand, pts []Point) []Point {
	shuffled := append([]Point(nil), pts...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var chunks [][]Point
	for len(shuffled) > 0 {
		n := min(rng.Intn(12), len(shuffled))
		chunks = append(chunks, shuffled[:n:n])
		shuffled = shuffled[n:]
	}
	return sortedPoints(chunks)
}

// TestKeepPathOrderMatchesLessPointSort checks the retaining sweep's
// key sort and gather against sort.Slice with lessPoint, for
// worker counts 1-4, and its frontiers and optima against the generic
// pareto.Frontier and ArgMin over the sorted points.
func TestKeepPathOrderMatchesLessPointSort(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true
	rng := rand.New(rand.NewSource(7))
	plan, err := PlanSweep(sweep, tco.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		eng := NewEngine(nil)
		eng.Workers = workers
		res, err := eng.explorePlan(context.Background(), plan, true)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Point(nil), res.Points...)
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		sortByLessPoint(want)
		if !reflect.DeepEqual(res.Points, want) {
			t.Fatalf("workers=%d: Result.Points is not in lessPoint order", workers)
		}
		if got := sortShuffled(rng, want); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sortedPoints over shuffled chunks differs from sort.Slice", workers)
		}

		ref := Result{Points: want}
		ref.Frontier = pareto.Select(want, pareto.Frontier(want, pointDollars, pointWatts))
		ref.CarbonFrontier = pareto.Select(want, pareto.Frontier(want, pointTCO, pointCO2))
		ref.EnergyOptimal = want[pareto.ArgMin(want, pointWatts)]
		ref.CostOptimal = want[pareto.ArgMin(want, pointDollars)]
		ref.TCOOptimal = want[pareto.ArgMin(want, pointTCO)]
		ref.CarbonOptimal = want[pareto.ArgMin(want, pointCO2)]
		ref.Pruned = res.Pruned
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: frontiers or optima differ from the generic pareto path", workers)
		}
	}
}

// TestSortedPointsTieBreaks feeds sortedPoints points
// that tie on $ per op/s (and on W per op/s), including NaN metrics, so
// the order is decided by lessPoint's fallback on the configuration.
func TestSortedPointsTieBreaks(t *testing.T) {
	var pts []Point
	for i := 0; i < 60; i++ {
		var p Point
		p.DollarsPerOp = float64(i % 3)
		p.WattsPerOp = float64(i % 2)
		switch i % 10 {
		case 0:
			p.DollarsPerOp = math.NaN()
		case 1:
			p.WattsPerOp = math.NaN()
		}
		p.Config.Voltage = 0.4 + 0.01*float64(i%5)
		p.Config.Stacked = i%4 == 0
		p.Config.ChipsPerLane = 1 + i%7
		p.Config.RCAsPerChip = i
		pts = append(pts, p)
	}
	rng := rand.New(rand.NewSource(11))
	want := append([]Point(nil), pts...)
	sortByLessPoint(want)
	for trial := 0; trial < 20; trial++ {
		got := sortShuffled(rng, pts)
		// NaN != NaN, so compare the coordinates that identify a point.
		for i := range want {
			if got[i].Config.RCAsPerChip != want[i].Config.RCAsPerChip {
				t.Fatalf("trial %d: position %d holds point %d, want %d",
					trial, i, got[i].Config.RCAsPerChip, want[i].Config.RCAsPerChip)
			}
		}
	}
}

// TestResultMergerPermutationsByteIdentical folds the chunk results of
// one sweep in random permutations: every merge must serialize to the
// same bytes as the single-process streaming sweep.
func TestResultMergerPermutationsByteIdentical(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true
	res := exploreDiscard(t, sweep)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	chunks := evaluateAllChunks(t, sweep, 1, true)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		perm := make([]ChunkResult, len(chunks))
		for i, j := range rng.Perm(len(chunks)) {
			perm[i] = chunks[j]
		}
		merged := mergeChunks(t, sweep, 1, perm)
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: merged result differs from the streaming sweep", trial)
		}
		// Configs are not serialized; compare them, and every other
		// field, structurally too.
		requireResultsIdentical(t, res, merged)
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

func checkAccounting(t *testing.T, s PruneSummary) {
	t.Helper()
	if s.Generated != s.Feasible+s.PrunedTotal() {
		t.Fatalf("accounting broken: generated %d != feasible %d + pruned %d (%s)",
			s.Generated, s.Feasible, s.PrunedTotal(), s)
	}
}

func TestExploreContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(nil).ExploreContext(ctx, smallSweep(), tco.Default())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Pruned.Feasible != 0 {
		t.Fatalf("pre-cancelled exploration produced %d feasible points", res.Pruned.Feasible)
	}
	checkAccounting(t, res.Pruned)
}

func TestExploreContextCancelMidRun(t *testing.T) {
	// The full Bitcoin space takes long enough that a 5 ms deadline
	// reliably interrupts it; the contract is a prompt return (within
	// one geometry's work, not the whole sweep) with exact partial
	// accounting.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sweep := Sweep{Base: server.Default(bitcoinRCA()), Stacked: true}
	start := time.Now()
	res, err := NewEngine(nil).ExploreContext(ctx, sweep, tco.Default())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine finished the full sweep inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("abort took %v, want well under the full sweep's duration", elapsed)
	}
	checkAccounting(t, res.Pruned)
}

func TestEnginePlanCacheHitIdentical(t *testing.T) {
	eng := NewEngine(nil)
	cold, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the cache: %+v", st)
	}
	if st.Hits != 0 {
		t.Fatalf("geometries are deduplicated, so a cold run has no hits: %+v", st)
	}
	warm, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	st2 := eng.CacheStats()
	if st2.Hits == 0 {
		t.Fatalf("warm run should hit the cache: %+v", st2)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("warm run recomputed plans: %+v -> %+v", st, st2)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache result differs from cold result")
	}
	fresh, err := NewEngine(nil).Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatal("shared-engine result differs from fresh-engine result")
	}
}

func TestEngineDiscardPointsIdentity(t *testing.T) {
	full, err := NewEngine(nil).Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	lean, err := eng.Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if lean.Points != nil {
		t.Fatalf("DiscardPoints retained %d points", len(lean.Points))
	}
	if !reflect.DeepEqual(full.Frontier, lean.Frontier) {
		t.Fatal("streaming frontier differs from retained frontier")
	}
	if !reflect.DeepEqual(full.EnergyOptimal, lean.EnergyOptimal) ||
		!reflect.DeepEqual(full.CostOptimal, lean.CostOptimal) ||
		!reflect.DeepEqual(full.TCOOptimal, lean.TCOOptimal) {
		t.Fatal("streaming optima differ from retained optima")
	}
	if !reflect.DeepEqual(full.Pruned, lean.Pruned) {
		t.Fatalf("prune accounting differs: %s vs %s", full.Pruned, lean.Pruned)
	}
}

func TestExploreUnsortedVoltagesMatchSorted(t *testing.T) {
	sorted := smallSweep()
	shuffled := smallSweep()
	// Reverse and duplicate: the thermal early break assumes ascending
	// order, so before normalization this grid pruned low feasible
	// voltages whenever a high one failed first.
	n := len(sorted.Voltages)
	shuffled.Voltages = make([]float64, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		shuffled.Voltages = append(shuffled.Voltages, sorted.Voltages[i])
	}
	shuffled.Voltages = append(shuffled.Voltages, sorted.Voltages[n/2], sorted.Voltages[0])
	a, err := Explore(sorted, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(shuffled, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unsorted/duplicated voltage grid changed the result: %s vs %s", a.Pruned, b.Pruned)
	}
}

func TestInvalidVoltagesRejected(t *testing.T) {
	for _, bad := range [][]float64{
		{0.5, -0.1},
		{0.0, 0.5},
		{0.5, math.NaN()},
		{0.05, 0.48, 3.0}, // outside the RCA's operating range
	} {
		sweep := smallSweep()
		sweep.Voltages = bad
		if _, err := Explore(sweep, tco.Default()); err == nil {
			t.Errorf("Explore accepted voltage grid %v", bad)
		}
		if _, err := FindTCOOptimal(sweep, tco.Default()); err == nil {
			t.Errorf("FindTCOOptimal accepted voltage grid %v", bad)
		}
		if _, err := FindCarbonOptimal(sweep, tco.Default()); err == nil {
			t.Errorf("FindCarbonOptimal accepted voltage grid %v", bad)
		}
	}
}

func TestStackedEarlyBreakAccounting(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true
	res, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res.Pruned)
	if res.Pruned.Reasons[PruneThermal] == 0 {
		t.Fatal("expected thermal prunes (early break) in the stacked sweep")
	}
}

func TestNormalizeVoltages(t *testing.T) {
	got, err := NormalizeVoltages([]float64{0.5, 0.4, 0.5, 0.45, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.45, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NormalizeVoltages = %v, want %v", got, want)
	}
}

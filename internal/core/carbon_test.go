package core

import (
	"math"
	"testing"

	"asiccloud/internal/carbon"
	"asiccloud/internal/tco"
)

func TestFindCarbonOptimalMatchesBruteForce(t *testing.T) {
	requireCarbonOptimalMatchesExplore(t, smallSweep())
}

func TestFindCarbonOptimalSparseVoltages(t *testing.T) {
	sweep := sparseSweep()
	requireVoltageInSet(t, requireCarbonOptimalMatchesExplore(t, sweep), sweep)
}

// TestFindCarbonOptimalCustomModel exercises a non-default carbon model
// threaded through Sweep.Carbon: a near-zero grid makes embodied carbon
// dominate, which pushes the optimum toward higher voltage (sweat the
// silicon) relative to the dirty-grid optimum — the carbon analogue of
// the cheap-electricity TCO shift.
func TestFindCarbonOptimalCustomModel(t *testing.T) {
	dirty := smallSweep()
	cm := carbon.ForGrid(800)
	dirty.Carbon = &cm

	clean := smallSweep()
	zm := carbon.ForGrid(0)
	clean.Carbon = &zm

	dirtyOpt, err := FindCarbonOptimal(dirty, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	cleanOpt, err := FindCarbonOptimal(clean, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if cleanOpt.Carbon.OperationalKg != 0 {
		t.Errorf("zero-intensity grid should have zero operational carbon, got %v",
			cleanOpt.Carbon.OperationalKg)
	}
	if cleanOpt.Config.Voltage < dirtyOpt.Config.Voltage {
		t.Errorf("zero-carbon grid optimum %.2f V below dirty-grid optimum %.2f V; embodied pressure should raise it",
			cleanOpt.Config.Voltage, dirtyOpt.Config.Voltage)
	}
}

// TestFindCarbonOptimalRejectsInvalidModel: a sweep carrying an invalid
// carbon model must fail loudly on every path, not sweep with garbage.
func TestFindCarbonOptimalRejectsInvalidModel(t *testing.T) {
	sweep := smallSweep()
	bad := carbon.Default()
	bad.GridGCO2ePerKWh = math.NaN()
	sweep.Carbon = &bad
	if _, err := FindCarbonOptimal(sweep, tco.Default()); err == nil {
		t.Error("NaN grid intensity should fail FindCarbonOptimal")
	}
	if _, err := FindTCOOptimal(sweep, tco.Default()); err == nil {
		t.Error("NaN grid intensity should fail FindTCOOptimal")
	}
	if _, err := Explore(sweep, tco.Default()); err == nil {
		t.Error("NaN grid intensity should fail Explore")
	}
}

// TestCarbonFrontierShape checks the carbon frontier's Pareto contract:
// ascending TCO per op, strictly descending CO2e per op, containing
// both single-axis optima at its ends.
func TestCarbonFrontierShape(t *testing.T) {
	res, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	cf := res.CarbonFrontier
	if len(cf) == 0 {
		t.Fatal("empty carbon frontier")
	}
	for i := 1; i < len(cf); i++ {
		if cf[i].TCOPerOp() < cf[i-1].TCOPerOp() {
			t.Errorf("frontier not ascending in TCO at %d", i)
		}
		if cf[i].CO2PerOp() >= cf[i-1].CO2PerOp() {
			t.Errorf("frontier not descending in CO2e at %d", i)
		}
	}
	if got := cf[0].TCOPerOp(); got != res.TCOOptimal.TCOPerOp() {
		t.Errorf("frontier head TCO %v != TCO-optimal %v", got, res.TCOOptimal.TCOPerOp())
	}
	if got := cf[len(cf)-1].CO2PerOp(); got != res.CarbonOptimal.CO2PerOp() {
		t.Errorf("frontier tail CO2e %v != carbon-optimal %v", got, res.CarbonOptimal.CO2PerOp())
	}
	// Every frontier point carries a positive embodied share: silicon is
	// never free.
	for _, p := range cf {
		if !(p.Carbon.EmbodiedKg > 0) {
			t.Errorf("non-positive embodied carbon %v at %.2f V", p.Carbon.EmbodiedKg, p.Config.Voltage)
		}
	}
}

// TestChunkedMergeCarbonModel reruns the distribution identity proof
// with a non-default carbon model riding in the sweep and the chunk
// results bounced through JSON: the merged carbon frontier and optimum
// must be byte-identical to the single-process sweep's.
func TestChunkedMergeCarbonModel(t *testing.T) {
	sweep := smallSweep()
	cm := carbon.ForGrid(20)
	cm.LifetimeYears = 3
	sweep.Carbon = &cm
	want := exploreDiscard(t, sweep)
	chunks := evaluateAllChunks(t, sweep, 3, true)
	got := mergeChunks(t, sweep, 3, chunks)
	requireResultsIdentical(t, want, got)
}

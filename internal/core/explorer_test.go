package core

import (
	"math"
	"reflect"
	"testing"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/vlsi"
)

func bitcoinRCA() vlsi.Spec {
	return vlsi.Spec{
		Name:                "bitcoin",
		PerfUnit:            "GH/s",
		Area:                0.66,
		NominalVoltage:      1.0,
		NominalFreq:         830e6,
		NominalPerf:         0.83,
		NominalPowerDensity: 2.0,
		LeakageFraction:     0.008,
		VoltageScalable:     true,
	}
}

// smallSweep keeps unit tests fast while covering the interesting region.
func smallSweep() Sweep {
	return Sweep{
		Base:           server.Default(bitcoinRCA()),
		Voltages:       VoltageGrid(0.40, 0.70),
		SiliconPerLane: []float64{130, 530, 3000, 6000},
		ChipsPerLane:   []int{5, 10, 20},
	}
}

func TestVoltageGrid(t *testing.T) {
	g := VoltageGrid(0.40, 0.43)
	want := []float64{0.40, 0.41, 0.42, 0.43}
	if len(g) != len(want) {
		t.Fatalf("grid = %v, want %v", g, want)
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid = %v, want %v", g, want)
		}
	}
	if VoltageGrid(0.5, 0.4) != nil {
		t.Error("inverted range should be empty")
	}
	if got := VoltageGrid(0.5, 0.5); len(got) != 1 {
		t.Errorf("degenerate range = %v, want single point", got)
	}
}

func TestExploreBasics(t *testing.T) {
	res, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no feasible points")
	}
	if len(res.Frontier) == 0 || len(res.Frontier) > len(res.Points) {
		t.Fatalf("frontier size %d of %d points", len(res.Frontier), len(res.Points))
	}
	// Frontier must be Pareto-consistent.
	for i, a := range res.Frontier {
		for j, b := range res.Frontier {
			if i != j && pareto.Dominates(a.DollarsPerOp, a.WattsPerOp, b.DollarsPerOp, b.WattsPerOp) {
				t.Fatalf("frontier point %d dominates %d", i, j)
			}
		}
	}
	// Every point is dominated by or equal to some frontier point in TCO
	// terms: the TCO optimum must lie on the frontier.
	model := tco.Default()
	for _, p := range res.Points {
		if model.Of(p.DollarsPerOp, p.WattsPerOp).Total() < res.TCOOptimal.TCOPerOp()-1e-9 {
			t.Fatal("TCOOptimal is not minimal")
		}
	}
}

func TestExploreOptimaOrdering(t *testing.T) {
	res, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	e, c, o := res.EnergyOptimal, res.CostOptimal, res.TCOOptimal
	if e.WattsPerOp > c.WattsPerOp {
		t.Error("energy-optimal should have the lowest W/op")
	}
	if c.DollarsPerOp > e.DollarsPerOp {
		t.Error("cost-optimal should have the lowest $/op")
	}
	// The paper's central observation: TCO-optimal beats both extremes.
	if o.TCOPerOp() > e.TCOPerOp() || o.TCOPerOp() > c.TCOPerOp() {
		t.Errorf("TCO-optimal (%v) should beat energy-opt (%v) and cost-opt (%v)",
			o.TCOPerOp(), e.TCOPerOp(), c.TCOPerOp())
	}
}

// TestBitcoinTable3Shape verifies the reproduction of the paper's Table 3
// structure: the energy-optimal server runs at the 0.40 V near-threshold
// floor on maximum-size dies; the cost-optimal server runs at a much
// higher voltage on much less silicon; the TCO-optimal point sits between
// them at heavy silicon and low-but-not-minimal voltage.
func TestBitcoinTable3Shape(t *testing.T) {
	sweep := Sweep{Base: server.Default(bitcoinRCA())}
	res, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	e := res.EnergyOptimal
	if e.Config.Voltage != 0.40 {
		t.Errorf("energy-optimal voltage = %v, want 0.40 (paper Table 3)", e.Config.Voltage)
	}
	if e.DieArea < 500 {
		t.Errorf("energy-optimal die = %.0f mm², want near the 600 mm² cap", e.DieArea)
	}
	if math.Abs(e.Perf-5094)/5094 > 0.10 {
		t.Errorf("energy-optimal perf = %.0f GH/s, want ~5094 ±10%%", e.Perf)
	}
	if math.Abs(e.WattsPerOp-0.368)/0.368 > 0.20 {
		t.Errorf("energy-optimal W/GH/s = %.3f, want ~0.368 ±20%%", e.WattsPerOp)
	}
	if math.Abs(e.DollarsPerOp-2.49)/2.49 > 0.20 {
		t.Errorf("energy-optimal $/GH/s = %.3f, want ~2.49 ±20%%", e.DollarsPerOp)
	}

	c := res.CostOptimal
	if c.Config.Voltage < 0.55 || c.Config.Voltage > 0.70 {
		t.Errorf("cost-optimal voltage = %v, want ~0.62 (paper Table 3)", c.Config.Voltage)
	}
	if c.DollarsPerOp > 0.9 {
		t.Errorf("cost-optimal $/GH/s = %.3f, want <= ~0.833 region", c.DollarsPerOp)
	}

	o := res.TCOOptimal
	if o.Config.Voltage < 0.44 || o.Config.Voltage > 0.54 {
		t.Errorf("TCO-optimal voltage = %v, want ~0.49 (paper Table 3)", o.Config.Voltage)
	}
	siliconPerLane := float64(o.Config.RCAsPerChip*o.Config.ChipsPerLane) * o.Config.RCA.Area
	if siliconPerLane < 1400 || siliconPerLane > 6100 {
		t.Errorf("TCO-optimal silicon/lane = %.0f mm², want heavy silicon (~3000)", siliconPerLane)
	}
	if math.Abs(o.TCOPerOp()-3.218)/3.218 > 0.20 {
		t.Errorf("TCO-optimal TCO/GH/s = %.3f, want ~3.218 ±20%%", o.TCOPerOp())
	}
	// Paper: "All Pareto-optimal designs are below 0.6 V" for Bitcoin.
	for _, p := range res.Frontier {
		if p.Config.Voltage > 0.62 {
			t.Errorf("frontier point at %v V: Bitcoin Pareto designs should sit below ~0.6 V", p.Config.Voltage)
		}
	}
}

func TestVoltageStackingImprovesTCO(t *testing.T) {
	// Paper §7: the TCO-optimal voltage-stacked design achieves
	// TCO/GH/s of $2.75 versus $3.218, "a significant savings".
	sweep := smallSweep()
	sweep.Stacked = true
	res, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TCOOptimal.Config.Stacked {
		t.Error("with stacking available, the TCO optimum should use it")
	}
	if res.TCOOptimal.TCOPerOp() >= base.TCOOptimal.TCOPerOp() {
		t.Errorf("stacked TCO %v should beat converter TCO %v",
			res.TCOOptimal.TCOPerOp(), base.TCOOptimal.TCOPerOp())
	}
}

func TestExploreWithDRAM(t *testing.T) {
	base := server.Default(bitcoinRCA())
	sub, err := dram.NewSubsystem(dram.LPDDR3, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.DRAM = sub
	base.PerfPerDRAM = 20
	sweep := Sweep{
		Base:           base,
		Voltages:       VoltageGrid(0.45, 0.60),
		SiliconPerLane: []float64{130, 530},
		ChipsPerLane:   []int{5, 10},
		DRAMPerASIC:    []int{1, 3, 6},
	}
	res, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]bool{}
	for _, p := range res.Points {
		counts[p.Config.DRAM.PerASIC] = true
		if p.Config.DRAM.PerASIC == 0 {
			t.Fatal("DRAM sweep should not produce DRAM-free points")
		}
	}
	if len(counts) < 2 {
		t.Errorf("expected multiple DRAM configurations, got %v", counts)
	}
}

func TestExploreDeterministic(t *testing.T) {
	a, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].DollarsPerOp != b.Points[i].DollarsPerOp ||
			a.Points[i].Config.Voltage != b.Points[i].Config.Voltage {
			t.Fatal("exploration is not deterministic")
		}
	}
}

func TestExploreErrors(t *testing.T) {
	sweep := smallSweep()
	sweep.ChipsPerLane = []int{200} // nothing fits
	if _, err := Explore(sweep, tco.Default()); err == nil {
		t.Error("infeasible space should fail")
	}
	sweep = smallSweep()
	sweep.Base.RCA.Area = 0
	if _, err := Explore(sweep, tco.Default()); err == nil {
		t.Error("invalid RCA should fail")
	}
	bad := tco.Default()
	bad.LifetimeYears = 0
	if _, err := Explore(smallSweep(), bad); err == nil {
		t.Error("invalid TCO model should fail")
	}
	sweep = smallSweep()
	sweep.SiliconPerLane = []float64{0.1} // rounds to zero RCAs
	if _, err := Explore(sweep, tco.Default()); err == nil {
		t.Error("sub-RCA silicon targets should yield an empty space")
	}
}

func TestDescribeMentionsKeyFields(t *testing.T) {
	res, err := Explore(smallSweep(), tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	s := res.TCOOptimal.Describe()
	if len(s) == 0 {
		t.Fatal("empty description")
	}
	for _, want := range []string{"GH/s", "lanes", "V", "TCO"} {
		if !contains(s, want) {
			t.Errorf("description %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// sparseSweep is smallSweep over an irregular, unsorted voltage set: two
// clusters with a hole, and a duplicate.
func sparseSweep() Sweep {
	s := smallSweep()
	s.Voltages = []float64{0.62, 0.40, 0.42, 0.44, 0.46, 0.48, 0.60, 0.64, 0.44}
	return s
}

// requireTCOOptimalMatchesExplore checks that FindTCOOptimal returns
// exactly Explore's TCOOptimal for sweep, and returns it.
func requireTCOOptimalMatchesExplore(t *testing.T, sweep Sweep) Point {
	t.Helper()
	full, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := FindTCOOptimal(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opt, full.TCOOptimal) {
		t.Errorf("FindTCOOptimal: %s\nExplore:        %s",
			opt.Describe(), full.TCOOptimal.Describe())
	}
	return opt
}

// requireCarbonOptimalMatchesExplore is requireTCOOptimalMatchesExplore
// for FindCarbonOptimal and Explore's CarbonOptimal.
func requireCarbonOptimalMatchesExplore(t *testing.T, sweep Sweep) Point {
	t.Helper()
	full, err := Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := FindCarbonOptimal(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opt, full.CarbonOptimal) {
		t.Errorf("FindCarbonOptimal: %s\nExplore:          %s",
			opt.Describe(), full.CarbonOptimal.Describe())
	}
	return opt
}

// requireVoltageInSet fails unless p was built at one of sweep's voltages.
func requireVoltageInSet(t *testing.T, p Point, sweep Sweep) {
	t.Helper()
	for _, v := range sweep.Voltages {
		if math.Abs(p.Config.Voltage-v) < 1e-12 {
			return
		}
	}
	t.Fatalf("optimum at %.3f V, not in the supplied set %v", p.Config.Voltage, sweep.Voltages)
}

func TestFindTCOOptimalMatchesBruteForce(t *testing.T) {
	requireTCOOptimalMatchesExplore(t, smallSweep())
}

func TestFindTCOOptimalHonorsSparseVoltageSet(t *testing.T) {
	sweep := sparseSweep()
	requireVoltageInSet(t, requireTCOOptimalMatchesExplore(t, sweep), sweep)
}

// TestFindOptimaMatchExplore checks that FindTCOOptimal and
// FindCarbonOptimal return exactly Explore's TCOOptimal and
// CarbonOptimal on a stacked sweep (whose optimum is a voltage-stacked
// server) and under non-default carbon models.
func TestFindOptimaMatchExplore(t *testing.T) {
	dirty, clean := carbon.ForGrid(800), carbon.ForGrid(0)
	for name, sweep := range map[string]Sweep{
		"stacked":    func() Sweep { s := smallSweep(); s.Stacked = true; return s }(),
		"dirty-grid": func() Sweep { s := smallSweep(); s.Carbon = &dirty; return s }(),
		"clean-grid": func() Sweep { s := smallSweep(); s.Carbon = &clean; return s }(),
	} {
		t.Run(name, func(t *testing.T) {
			requireTCOOptimalMatchesExplore(t, sweep)
			requireCarbonOptimalMatchesExplore(t, sweep)
		})
	}
}

func TestFindTCOOptimalFullSpace(t *testing.T) {
	opt, err := FindTCOOptimal(Sweep{Base: server.Default(bitcoinRCA())}, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Config.Voltage < 0.44 || opt.Config.Voltage > 0.54 {
		t.Errorf("TCO-optimal voltage %v, want ~0.48", opt.Config.Voltage)
	}
}

func TestFindTCOOptimalErrors(t *testing.T) {
	badModel := tco.Default()
	badModel.PUE = 0.5
	for _, tc := range []struct {
		name  string
		sweep func(*Sweep)
		model tco.Model
	}{
		{"infeasible space", func(s *Sweep) { s.ChipsPerLane = []int{200} }, tco.Default()},
		{"invalid TCO model", func(*Sweep) {}, badModel},
		{"invalid RCA", func(s *Sweep) { s.Base.RCA.Area = -1 }, tco.Default()},
	} {
		sweep := smallSweep()
		tc.sweep(&sweep)
		if _, err := FindTCOOptimal(sweep, tc.model); err == nil {
			t.Errorf("%s: FindTCOOptimal should fail", tc.name)
		}
		if _, err := FindCarbonOptimal(sweep, tc.model); err == nil {
			t.Errorf("%s: FindCarbonOptimal should fail", tc.name)
		}
	}
}

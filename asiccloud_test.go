package asiccloud

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: pick an application RCA, explore, and read off the optimum —
// the integration path across vlsi → thermal → power → server → core →
// tco.
func TestFacadeEndToEnd(t *testing.T) {
	res, err := Explore(Sweep{Base: DefaultServer(BitcoinRCA())}, DefaultTCO())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	o := res.TCOOptimal
	if o.TCOPerOp() <= 0 {
		t.Fatal("TCO must be positive")
	}
	// The paper's headline: TCO-optimal within the published ballpark.
	if math.Abs(o.TCOPerOp()-3.218)/3.218 > 0.25 {
		t.Errorf("Bitcoin TCO/GH/s = %v, want ~3.2 ±25%%", o.TCOPerOp())
	}
}

func TestFacadeSingleServer(t *testing.T) {
	cfg := DefaultServer(BitcoinRCA())
	cfg.Voltage = 0.52
	cfg.ChipsPerLane = 10
	cfg.RCAsPerChip = 200
	ev, err := EvaluateServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Perf <= 0 || ev.WallPower <= 0 || ev.Cost() <= 0 {
		t.Error("degenerate evaluation")
	}
}

func TestFacadeCustomEstimation(t *testing.T) {
	spec, err := Estimate28nm(Netlist{
		Name: "facade-test", Gates: 100_000, Flops: 20_000,
		CombActivity: 0.2, FlopActivity: 0.4,
	}, 700e6, 1e-6, "Mops/s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Area <= 0 {
		t.Error("estimator returned no area")
	}
	if _, err := Explore(Sweep{
		Base:           DefaultServer(spec),
		Voltages:       VoltageGrid(0.45, 0.65),
		SiliconPerLane: []float64{130, 530},
		ChipsPerLane:   []int{5, 10},
	}, DefaultTCO()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCNN(t *testing.T) {
	evals, err := CNNExplore(DefaultTCO())
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 12 {
		t.Errorf("got %d CNN shapes, want 12", len(evals))
	}
}

func TestFacadeNREAndDeployment(t *testing.T) {
	d, err := EvaluateNRE(20e6, 5e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.PassesTwoForTwo {
		t.Error("4x ratio with 3x speedup should pass")
	}
	dep, err := PlanDeployment(DefaultRack(), 1000, 2000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Servers != 100 {
		t.Errorf("servers = %d, want 100", dep.Servers)
	}
}

func TestFacadeChipSim(t *testing.T) {
	cfg := DefaultChipConfig()
	cfg.HeatPerBusyCycle = 0
	chip, err := NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		chip.Submit(uint64(i+1), 0)
	}
	if !chip.RunUntilDrained(1_000_000) {
		t.Fatal("chip did not drain")
	}
	if got := chip.Stats().Completed; got != 64 {
		t.Errorf("completed %d, want 64", got)
	}
}

func TestFacadeAppConstructors(t *testing.T) {
	ltc := LitecoinRCA()
	if err := ltc.Validate(); err != nil {
		t.Error(err)
	}
	cfg, err := XcodeServer(3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DRAM.PerASIC != 3 {
		t.Error("xcode DRAM count not applied")
	}
	if UMC28nm().Name != "UMC 28nm" {
		t.Error("process constructor wrong")
	}
	if TCOForLifetime(3).LifetimeYears != 3 {
		t.Error("lifetime not applied")
	}
}

func TestFacadeTraffic(t *testing.T) {
	g := DefaultTraffic()
	g.MeanRate = 10
	g.DiurnalSwing = 0
	jobs, err := g.Trace(600)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ProvisionForLatency(jobs, 5, 2.0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Servers < 1 || r.P99WaitSec > 2.0 {
		t.Errorf("provisioning failed: %+v", r)
	}
}

func TestFacadeFindTCOOptimal(t *testing.T) {
	p, err := FindTCOOptimal(Sweep{
		Base:           DefaultServer(BitcoinRCA()),
		SiliconPerLane: []float64{530, 3000},
		ChipsPerLane:   []int{10, 20},
	}, DefaultTCO())
	if err != nil {
		t.Fatal(err)
	}
	if p.TCOPerOp() <= 0 {
		t.Error("FindTCOOptimal returned a degenerate point")
	}
}

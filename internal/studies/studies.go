// Package studies contains the sensitivity and ablation studies the
// paper's discussion motivates but does not tabulate: how datacenter
// parameters (energy price, hardware lifetime), design choices (PCB
// layout, cooling technology, power delivery) and fabrication choices
// (process node, wafer price) move the TCO-optimal point. "Cloud-level
// parameters ... are pushed down into the server and ASIC design to
// influence cost- and energy-efficiency of computation, producing the
// TCO-optimal design."
package studies

import (
	"fmt"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/core"
	"asiccloud/internal/datacenter"
	"asiccloud/internal/nre"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
	"asiccloud/internal/vlsi"
)

// engine is shared by every study in the package: the studies perturb
// TCO models and datacenter parameters far more often than server
// geometry, so a thermal plan memoized by one study serves the rest
// (the cache key covers every geometry-relevant field, so the studies
// that do vary layout or cooling stay correct). The studies read only
// optima and frontiers, so it retains no points.
var engine = func() *core.Engine {
	e := core.NewEngine(nil)
	e.DiscardPoints = true
	return e
}()

// quickSweep trims the Bitcoin design space to the region that contains
// every optimum, so studies run in tens of milliseconds each.
func quickSweep(base server.Config) core.Sweep {
	return core.Sweep{
		Base:           base,
		Voltages:       core.VoltageGrid(0.40, 0.80),
		SiliconPerLane: []float64{130, 530, 1400, 3000, 6000},
		ChipsPerLane:   []int{5, 10, 20},
	}
}

// EnergyPricePoint is one row of the electricity sensitivity study.
type EnergyPricePoint struct {
	PricePerKWh    float64
	OptimalVoltage float64
	WattsPerOp     float64
	TCOPerOp       float64
}

// EnergyPriceStudy sweeps the electricity price and reports how the
// TCO-optimal Bitcoin design moves. The paper's miners site datacenters
// in Iceland and Georgia for cheap energy (§3); cheap energy weights
// the TCO toward hardware cost and pushes the optimal voltage up, while
// expensive energy pushes it toward the near-threshold floor.
func EnergyPriceStudy(prices []float64) ([]EnergyPricePoint, error) {
	if len(prices) == 0 {
		return nil, fmt.Errorf("studies: no prices given")
	}
	out := make([]EnergyPricePoint, 0, len(prices))
	for _, p := range prices {
		if p < 0 {
			return nil, fmt.Errorf("studies: negative energy price %v", p)
		}
		model := tco.Default()
		model.ElectricityPerKWh = p
		res, err := engine.Explore(quickSweep(server.Default(bitcoin.RCA())), model)
		if err != nil {
			return nil, err
		}
		out = append(out, EnergyPricePoint{
			PricePerKWh:    p,
			OptimalVoltage: res.TCOOptimal.Config.Voltage,
			WattsPerOp:     res.TCOOptimal.WattsPerOp,
			TCOPerOp:       res.TCOOptimal.TCOPerOp(),
		})
	}
	return out, nil
}

// LifetimePoint is one row of the amortization study.
type LifetimePoint struct {
	Years          float64
	OptimalVoltage float64
	WattsPerOp     float64
	TCOPerOp       float64
}

// LifetimeStudy sweeps the server amortization period. Longer lifetimes
// accumulate more electricity per dollar of hardware, shifting the
// optimum toward energy efficiency (lower voltage).
func LifetimeStudy(years []float64) ([]LifetimePoint, error) {
	if len(years) == 0 {
		return nil, fmt.Errorf("studies: no lifetimes given")
	}
	out := make([]LifetimePoint, 0, len(years))
	for _, y := range years {
		if y <= 0 {
			return nil, fmt.Errorf("studies: non-positive lifetime %v", y)
		}
		res, err := engine.Explore(quickSweep(server.Default(bitcoin.RCA())), tco.ForLifetime(y))
		if err != nil {
			return nil, err
		}
		out = append(out, LifetimePoint{
			Years:          y,
			OptimalVoltage: res.TCOOptimal.Config.Voltage,
			WattsPerOp:     res.TCOOptimal.WattsPerOp,
			TCOPerOp:       res.TCOOptimal.TCOPerOp(),
		})
	}
	return out, nil
}

// LayoutPoint compares PCB layouts end to end.
type LayoutPoint struct {
	Layout   thermal.Layout
	TCOPerOp float64
	Perf     float64
}

// LayoutStudy quantifies what the DUCT layout is worth at the cloud
// level: the same RCA explored under each of the three Figure 7
// arrangements.
func LayoutStudy() ([]LayoutPoint, error) {
	var out []LayoutPoint
	for _, layout := range []thermal.Layout{thermal.LayoutNormal, thermal.LayoutStaggered, thermal.LayoutDuct} {
		base := server.Default(bitcoin.RCA())
		base.Layout = layout
		res, err := engine.Explore(quickSweep(base), tco.Default())
		if err != nil {
			return nil, fmt.Errorf("studies: layout %v: %w", layout, err)
		}
		out = append(out, LayoutPoint{
			Layout:   layout,
			TCOPerOp: res.TCOOptimal.TCOPerOp(),
			Perf:     res.TCOOptimal.Perf,
		})
	}
	return out, nil
}

// CoolingPoint compares cooling technologies.
type CoolingPoint struct {
	Name       string
	TCOPerOp   float64
	WattsPerOp float64
	Voltage    float64
}

// CoolingStudy compares forced air against two-phase immersion (§2's
// "heavily customized" Bitcoin machine rooms) at the cloud level.
func CoolingStudy() ([]CoolingPoint, error) {
	var out []CoolingPoint
	for _, immersion := range []bool{false, true} {
		base := server.Default(bitcoin.RCA())
		base.Immersion = immersion
		res, err := engine.Explore(quickSweep(base), tco.Default())
		if err != nil {
			return nil, err
		}
		name := "forced air (DUCT)"
		if immersion {
			name = "two-phase immersion"
		}
		out = append(out, CoolingPoint{
			Name:       name,
			TCOPerOp:   res.TCOOptimal.TCOPerOp(),
			WattsPerOp: res.TCOOptimal.WattsPerOp,
			Voltage:    res.TCOOptimal.Config.Voltage,
		})
	}
	return out, nil
}

// NodePoint compares fabrication nodes.
type NodePoint struct {
	Node     string
	TCOPerOp float64
	MaskCost float64
	// BreakevenTCO is the yearly computation TCO above which the node's
	// NRE pays for itself at this TCO/op (two-for-two style analysis).
	BreakevenTCO float64
}

// bitcoin40nm ports the published 28nm RCA one node back with the
// standard scaling factors — the paper: "only a small difference in
// performance and energy efficiency from 28 nm".
func bitcoin40nm() vlsi.Spec {
	s, err := vlsi.To40nmFrom28nm().Apply(bitcoin.RCA(), "bitcoin-sha256d-40nm")
	if err != nil {
		// The published spec is a constant; porting cannot fail.
		panic(err)
	}
	return s
}

// NodeStudy compares the 28nm and 40nm Bitcoin clouds including NRE:
// §12 argues older nodes "are likely to provide suitable TCO per op/s
// reduction, with half the mask cost".
func NodeStudy() ([]NodePoint, error) {
	type candidate struct {
		name    string
		rca     vlsi.Spec
		process vlsi.Process
		nreCost float64
	}
	cands := []candidate{
		{"UMC 28nm", bitcoin.RCA(), vlsi.UMC28nm(), nre.Default28nm().Total()},
		{"TSMC 40nm", bitcoin40nm(), vlsi.TSMC40nm(), nre.Default40nm().Total()},
	}
	var out []NodePoint
	for _, c := range cands {
		base := server.Default(c.rca)
		base.Process = c.process
		res, err := engine.Explore(quickSweep(base), tco.Default())
		if err != nil {
			return nil, fmt.Errorf("studies: node %s: %w", c.name, err)
		}
		out = append(out, NodePoint{
			Node:         c.name,
			TCOPerOp:     res.TCOOptimal.TCOPerOp(),
			MaskCost:     c.process.MaskCost,
			BreakevenTCO: 2 * c.nreCost, // the two-for-two threshold
		})
	}
	return out, nil
}

// SitePoint is one row of the geographic siting study.
type SitePoint struct {
	Site           datacenter.Site
	OptimalVoltage float64
	TCOPerOp       float64
}

// SiteStudy evaluates the TCO-optimal Bitcoin cloud at each catalog
// site, with the site's energy price, PUE, datacenter capex and inlet
// air temperature all pushed down into the design — the full version of
// the paper's §3 siting argument and §5's "cloud-level parameters ...
// are pushed down into the server and ASIC design".
func SiteStudy() ([]SitePoint, error) {
	var out []SitePoint
	for _, site := range datacenter.Sites() {
		if err := site.Validate(); err != nil {
			return nil, err
		}
		model := tco.Default()
		model.ElectricityPerKWh = site.ElectricityPerKWh
		model.PUE = site.PUE
		model.DCCapexPerWattYear = site.DCCapexPerWattYear
		base := server.Default(bitcoin.RCA())
		base.InletTempC = site.InletTempC
		res, err := engine.Explore(quickSweep(base), model)
		if err != nil {
			return nil, fmt.Errorf("studies: site %s: %w", site.Name, err)
		}
		out = append(out, SitePoint{
			Site:           site,
			OptimalVoltage: res.TCOOptimal.Config.Voltage,
			TCOPerOp:       res.TCOOptimal.TCOPerOp(),
		})
	}
	return out, nil
}

// WaferPricePoint is one row of the silicon-price sensitivity study.
type WaferPricePoint struct {
	WaferCost      float64
	OptimalVoltage float64
	DollarsPerOp   float64
	TCOPerOp       float64
}

// WaferPriceStudy sweeps the wafer price. Expensive silicon shifts the
// optimum toward higher voltage (sweat the silicon harder); cheap
// silicon buys energy efficiency.
func WaferPriceStudy(prices []float64) ([]WaferPricePoint, error) {
	if len(prices) == 0 {
		return nil, fmt.Errorf("studies: no wafer prices")
	}
	out := make([]WaferPricePoint, 0, len(prices))
	for _, p := range prices {
		if p <= 0 {
			return nil, fmt.Errorf("studies: non-positive wafer price %v", p)
		}
		base := server.Default(bitcoin.RCA())
		base.Process.WaferCost = p
		res, err := engine.Explore(quickSweep(base), tco.Default())
		if err != nil {
			return nil, err
		}
		out = append(out, WaferPricePoint{
			WaferCost:      p,
			OptimalVoltage: res.TCOOptimal.Config.Voltage,
			DollarsPerOp:   res.TCOOptimal.DollarsPerOp,
			TCOPerOp:       res.TCOOptimal.TCOPerOp(),
		})
	}
	return out, nil
}

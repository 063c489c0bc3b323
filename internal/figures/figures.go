// Package figures regenerates every table and figure of the paper's
// evaluation as aligned text and CSV series. Each Figure/Table function
// returns the rendered artifact plus the underlying numeric series so
// tests and EXPERIMENTS.md can compare against the paper.
package figures

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	appbitcoin "asiccloud/internal/apps/bitcoin"
	appcnn "asiccloud/internal/apps/cnn"
	applitecoin "asiccloud/internal/apps/litecoin"
	appxcode "asiccloud/internal/apps/xcode"
	"asiccloud/internal/baseline"
	"asiccloud/internal/core"
	"asiccloud/internal/nre"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
	"asiccloud/internal/units"
	"asiccloud/internal/vlsi"
)

// Artifact is one regenerated table or figure.
type Artifact struct {
	ID    string // e.g. "fig12", "table3"
	Title string
	Text  string     // aligned human-readable rendering
	CSV   string     // machine-readable series
	Rows  [][]string // parsed rows (header first) for tests
}

// render lays out one artifact's text and CSV forms. The row order it
// is handed is the row order every regeneration must reproduce.
//
//asic:canonical
func render(id, title string, header []string, rows [][]string) Artifact {
	var text strings.Builder
	fmt.Fprintf(&text, "%s — %s\n", strings.ToUpper(id), title)
	widths := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, r := range all {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, r := range all {
		for i, c := range r {
			fmt.Fprintf(&text, "%-*s  ", widths[i], c)
		}
		text.WriteString("\n")
		if ri == 0 {
			for _, w := range widths {
				text.WriteString(strings.Repeat("-", w) + "  ")
			}
			text.WriteString("\n")
		}
	}
	var csv strings.Builder
	for _, r := range all {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	return Artifact{ID: id, Title: title, Text: text.String(), CSV: csv.String(),
		Rows: append([][]string{header}, rows...)}
}

func f(format string, v float64) string { return fmt.Sprintf(format, v) }

// Figure1 simulates the Bitcoin network's six-year difficulty ramp with
// the annotated technology generations.
func Figure1() (Artifact, error) {
	samples, err := appbitcoin.SimulateNetwork(
		appbitcoin.HistoricalGenerations(), appbitcoin.DefaultNetworkParams(), 6.9)
	if err != nil {
		return Artifact{}, err
	}
	rows := make([][]string, 0, len(samples)/8+1)
	for i, s := range samples {
		if i%8 != 0 && i != len(samples)-1 {
			continue // thin the series for readability
		}
		rows = append(rows, []string{
			f("%.2f", s.Years), fmt.Sprintf("%d", s.Block),
			f("%.3g", s.Difficulty), f("%.3g", s.HashrateGH),
		})
	}
	return render("fig1", "Rising global Bitcoin difficulty and hashrate",
		[]string{"years", "block", "difficulty", "hashrate_GHs"}, rows), nil
}

// Figure5 samples the 28nm delay–voltage curve.
func Figure5() Artifact {
	c := vlsi.Default28nm()
	var rows [][]string
	for v := 0.40; v <= 1.001; v += 0.05 {
		rows = append(rows, []string{f("%.2f", v), f("%.3f", c.Delay(v))})
	}
	return render("fig5", "Delay-voltage curve for 28nm logic",
		[]string{"vdd_V", "normalized_delay"}, rows)
}

// Figure6 sweeps die area against the optimal single-chip heat sink.
func Figure6() (Artifact, error) {
	opt := thermal.DefaultOptimizeOptions()
	fan := thermal.Default1UFan()
	var rows [][]string
	for _, area := range []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000} {
		r, ok := thermal.OptimizeSink(fan, 1, area, opt)
		if !ok {
			return Artifact{}, fmt.Errorf("figures: no sink for %.0f mm²", area)
		}
		rows = append(rows, []string{
			f("%.0f", area),
			f("%.3f", r.ResistanceKW),
			f("%.1f", r.ChipPower),
			f("%.3f", r.ChipPower/area),
		})
	}
	return render("fig6", "Heat sink performance versus die area",
		[]string{"die_mm2", "resistance_KperW", "watts", "watts_per_mm2"}, rows), nil
}

// Figure8 compares the three PCB layouts at the paper's experiment
// setup (16 ASICs of 100 mm², identical fans).
func Figure8() (Artifact, error) {
	opt := thermal.DefaultOptimizeOptions()
	fan := thermal.Default1UFan()
	var rows [][]string
	var normal float64
	for _, layout := range []thermal.Layout{thermal.LayoutNormal, thermal.LayoutStaggered, thermal.LayoutDuct} {
		o := opt
		o.Layout = layout
		r, ok := thermal.OptimizeSink(fan, 4, 100, o)
		if !ok {
			return Artifact{}, fmt.Errorf("figures: layout %v failed", layout)
		}
		if layout == thermal.LayoutNormal {
			normal = r.LanePower
		}
		rows = append(rows, []string{
			layout.String(), f("%.1f", r.LanePower), f("%.2f", r.LanePower/normal),
		})
	}
	return render("fig8", "Power per column for the three PCB layouts",
		[]string{"layout", "watts_per_column", "vs_normal"}, rows), nil
}

// Figure9 sweeps chips per lane for fixed total-silicon series.
func Figure9() (Artifact, error) {
	opt := thermal.DefaultOptimizeOptions()
	fan := thermal.Default1UFan()
	var rows [][]string
	for _, total := range []float64{50, 130, 330, 850, 2200} {
		for _, n := range []int{5, 10, 15, 20} {
			r, ok := thermal.OptimizeSink(fan, n, total/float64(n), opt)
			if !ok {
				continue
			}
			rows = append(rows, []string{
				f("%.0f", total), fmt.Sprintf("%d", n), f("%.1f", r.LanePower),
			})
		}
	}
	return render("fig9", "Max power per lane versus ASICs per lane",
		[]string{"silicon_mm2", "asics", "watts_per_lane"}, rows), nil
}

// Figure10 relates power density to $ per watt across silicon-per-lane
// series (chip-count optimized).
func Figure10() (Artifact, error) {
	res, err := bitcoinExplore()
	if err != nil {
		return Artifact{}, err
	}
	var rows [][]string
	for _, p := range res.Frontier {
		density := p.ChipHeat / p.DieArea
		rows = append(rows, []string{
			f("%.0f", float64(p.Config.RCAsPerChip*p.Config.ChipsPerLane)*p.Config.RCA.Area),
			fmt.Sprintf("%d", p.Config.ChipsPerLane),
			f("%.3f", density),
			f("%.3f", p.Cost()/p.WallPower),
		})
	}
	return render("fig10", "Cost per watt versus power density (frontier designs)",
		[]string{"silicon_per_lane_mm2", "chips", "W_per_mm2", "dollars_per_W"}, rows), nil
}

// The full per-application explorations feed several figures each; they
// are deterministic, so cache them per process. They share one engine:
// the plain and stacked Bitcoin sweeps cover the same geometries, so the
// second skips heat-sink optimization entirely via the plan cache. The
// figures read only optima and frontiers, so it retains no points;
// Figure 11 runs its own retaining sweep.
var engine = func() *core.Engine {
	e := core.NewEngine(nil)
	e.DiscardPoints = true
	return e
}()

var (
	bitcoinOnce, bitcoinStackedOnce, litecoinOnce, xcodeOnce sync.Once
	bitcoinRes, bitcoinStackedRes, litecoinRes, xcodeRes     core.Result
	bitcoinErr, bitcoinStackedErr, litecoinErr, xcodeErr     error
)

// bitcoinExplore caches the full Bitcoin exploration for figures 10-13.
func bitcoinExplore() (core.Result, error) {
	bitcoinOnce.Do(func() {
		bitcoinRes, bitcoinErr = engine.Explore(core.Sweep{Base: server.Default(appbitcoin.RCA())}, tco.Default())
	})
	return bitcoinRes, bitcoinErr
}

func bitcoinStackedExplore() (core.Result, error) {
	bitcoinStackedOnce.Do(func() {
		bitcoinStackedRes, bitcoinStackedErr = engine.Explore(core.Sweep{
			Base:    server.Default(appbitcoin.RCA()),
			Stacked: true,
		}, tco.Default())
	})
	return bitcoinStackedRes, bitcoinStackedErr
}

func litecoinExplore() (core.Result, error) {
	litecoinOnce.Do(func() {
		litecoinRes, litecoinErr = engine.Explore(core.Sweep{Base: server.Default(applitecoin.RCA())}, tco.Default())
	})
	return litecoinRes, litecoinErr
}

// Figure11 shows Bitcoin $ per GH/s versus power density by voltage.
func Figure11() (Artifact, error) {
	// Sample voltages at the 10-chips-per-lane slice, like the paper. A
	// chips=10 geometry deduplicates only against other chips=10 cells,
	// so this sweep's points are exactly the full sweep's chips=10
	// points, in the same order.
	res, err := core.Explore(core.Sweep{Base: server.Default(appbitcoin.RCA()), ChipsPerLane: []int{10}}, tco.Default())
	if err != nil {
		return Artifact{}, err
	}
	var rows [][]string
	for _, p := range res.Points {
		v := p.Config.Voltage
		sampled := false
		for _, want := range []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.62} {
			if units.ApproxEqual(v, want, 1e-9) {
				sampled = true
				break
			}
		}
		if !sampled {
			continue
		}
		rows = append(rows, []string{
			f("%.2f", v),
			f("%.0f", float64(p.Config.RCAsPerChip*p.Config.ChipsPerLane)*p.Config.RCA.Area),
			f("%.3f", p.ChipHeat/p.DieArea),
			f("%.3f", p.DollarsPerOp),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0] < rows[j][0]
		}
		return len(rows[i][1]) < len(rows[j][1]) || rows[i][1] < rows[j][1]
	})
	return render("fig11", "Bitcoin voltage versus cost-performance",
		[]string{"voltage_V", "silicon_per_lane_mm2", "W_per_mm2", "dollars_per_GHs"}, rows), nil
}

// Figure12Table3 produces the Bitcoin Pareto frontier and the Table 3
// optimal-server columns.
func Figure12Table3() (frontier, table Artifact, err error) {
	res, err := bitcoinExplore()
	if err != nil {
		return Artifact{}, Artifact{}, err
	}
	var rows [][]string
	for _, p := range res.Frontier {
		rows = append(rows, []string{
			f("%.3f", p.WattsPerOp), f("%.3f", p.DollarsPerOp),
			f("%.2f", p.Config.Voltage),
			fmt.Sprintf("%d", p.Config.ChipsPerLane),
			f("%.0f", p.DieArea),
			f("%.3f", p.TCOPerOp()),
		})
	}
	frontier = render("fig12", "Bitcoin cost versus energy efficiency Pareto",
		[]string{"W_per_GHs", "dollars_per_GHs", "voltage_V", "chips_per_lane", "die_mm2", "TCO_per_GHs"}, rows)
	table = optimaTable("table3", "Bitcoin ASIC Cloud optimization results", "GH/s",
		res.EnergyOptimal, res.TCOOptimal, res.CostOptimal)
	return frontier, table, nil
}

// optimaTable renders the three-column per-application table.
func optimaTable(id, title, unit string, energy, tcoOpt, cost core.Point) Artifact {
	row := func(name string, get func(core.Point) string) []string {
		return []string{name, get(energy), get(tcoOpt), get(cost)}
	}
	rows := [][]string{
		row("ASICs per lane", func(p core.Point) string { return fmt.Sprintf("%d", p.Config.ChipsPerLane) }),
		row("Lanes", func(p core.Point) string { return fmt.Sprintf("%d", p.Config.Lanes) }),
		row("Logic voltage (V)", func(p core.Point) string { return f("%.2f", p.Config.Voltage) }),
		row("Clock (MHz)", func(p core.Point) string { return f("%.0f", units.HzToMHz(p.Freq)) }),
		row("Die size (mm2)", func(p core.Point) string { return f("%.0f", p.DieArea) }),
		row("RCAs per chip", func(p core.Point) string { return fmt.Sprintf("%d", p.Config.RCAsPerChip) }),
		row("Total silicon (mm2)", func(p core.Point) string {
			return f("%.0f", float64(p.TotalRCAs)*p.Config.RCA.Area)
		}),
		row("Perf per server ("+unit+")", func(p core.Point) string { return f("%.0f", p.Perf) }),
		row("W per server", func(p core.Point) string { return f("%.0f", p.WallPower) }),
		row("$ per server", func(p core.Point) string { return f("%.0f", p.Cost()) }),
		row("W per "+unit, func(p core.Point) string { return f("%.3f", p.WattsPerOp) }),
		row("$ per "+unit, func(p core.Point) string { return f("%.3f", p.DollarsPerOp) }),
		row("TCO per "+unit, func(p core.Point) string { return f("%.3f", p.TCOPerOp()) }),
		row("Server amort per "+unit, func(p core.Point) string { return f("%.3f", p.TCO.ServerAmort) }),
		row("Amort interest per "+unit, func(p core.Point) string { return f("%.3f", p.TCO.AmortInterest) }),
		row("DC CAPEX per "+unit, func(p core.Point) string { return f("%.3f", p.TCO.DCCapex) }),
		row("Electricity per "+unit, func(p core.Point) string { return f("%.3f", p.TCO.Electricity) }),
		row("DC interest per "+unit, func(p core.Point) string { return f("%.3f", p.TCO.DCInterest) }),
	}
	return render(id, title,
		[]string{"metric", "W/" + unit + " optimal", "TCO/" + unit + " optimal", "$/" + unit + " optimal"}, rows)
}

// Figure13 renders the Bitcoin server cost breakdown for the three
// optimal designs.
func Figure13() (Artifact, error) {
	res, err := bitcoinExplore()
	if err != nil {
		return Artifact{}, err
	}
	return costBreakdown("fig13", "Bitcoin server cost breakdown",
		res.EnergyOptimal, res.TCOOptimal, res.CostOptimal), nil
}

func costBreakdown(id, title string, energy, tcoOpt, cost core.Point) Artifact {
	share := func(p core.Point, part float64) string {
		return f("%.1f", 100*part/p.Cost())
	}
	row := func(name string, get func(core.Point) float64) []string {
		return []string{name, share(energy, get(energy)), share(tcoOpt, get(tcoOpt)), share(cost, get(cost))}
	}
	rows := [][]string{
		row("ASICs", func(p core.Point) float64 { return p.BOM.Silicon + p.BOM.Packages }),
		row("DC/DCs", func(p core.Point) float64 { return p.BOM.DCDC }),
		row("Heatsinks", func(p core.Point) float64 { return p.BOM.HeatSinks }),
		row("PSU", func(p core.Point) float64 { return p.BOM.PSU }),
		row("Fans", func(p core.Point) float64 { return p.BOM.Fans }),
		row("DRAM", func(p core.Point) float64 { return p.BOM.DRAM }),
		row("Others", func(p core.Point) float64 { return p.BOM.PCB + p.BOM.Network + p.BOM.Other }),
	}
	return render(id, title,
		[]string{"component_pct", "W-optimal", "TCO-optimal", "$-optimal"}, rows)
}

// VoltageStacking reports the paper's §7 voltage-stacked TCO-optimal
// design beside the converter-based one.
func VoltageStacking() (Artifact, error) {
	baseRes, err := bitcoinExplore()
	if err != nil {
		return Artifact{}, err
	}
	stackedRes, err := bitcoinStackedExplore()
	if err != nil {
		return Artifact{}, err
	}
	rows := [][]string{
		{"DC/DC converters",
			f("%.2f", baseRes.TCOOptimal.Config.Voltage),
			f("%.3f", baseRes.TCOOptimal.WattsPerOp),
			f("%.3f", baseRes.TCOOptimal.DollarsPerOp),
			f("%.3f", baseRes.TCOOptimal.TCOPerOp())},
		{"Voltage stacked",
			f("%.2f", stackedRes.TCOOptimal.Config.Voltage),
			f("%.3f", stackedRes.TCOOptimal.WattsPerOp),
			f("%.3f", stackedRes.TCOOptimal.DollarsPerOp),
			f("%.3f", stackedRes.TCOOptimal.TCOPerOp())},
	}
	return render("stacking", "Bitcoin voltage stacking (paper §7)",
		[]string{"power_delivery", "voltage_V", "W_per_GHs", "dollars_per_GHs", "TCO_per_GHs"}, rows), nil
}

// Figure14Table4 produces the Litecoin Pareto and Table 4.
func Figure14Table4() (frontier, table Artifact, err error) {
	res, err := litecoinExplore()
	if err != nil {
		return Artifact{}, Artifact{}, err
	}
	var rows [][]string
	for _, p := range res.Frontier {
		rows = append(rows, []string{
			f("%.3f", p.WattsPerOp), f("%.3f", p.DollarsPerOp),
			f("%.2f", p.Config.Voltage),
			fmt.Sprintf("%d", p.Config.ChipsPerLane),
			f("%.0f", p.DieArea),
			f("%.3f", p.TCOPerOp()),
		})
	}
	frontier = render("fig14", "Litecoin cost versus energy efficiency Pareto",
		[]string{"W_per_MHs", "dollars_per_MHs", "voltage_V", "chips_per_lane", "die_mm2", "TCO_per_MHs"}, rows)
	table = optimaTable("table4", "Litecoin ASIC server optimization results", "MH/s",
		res.EnergyOptimal, res.TCOOptimal, res.CostOptimal)
	return frontier, table, nil
}

// xcodeExplore runs the video-transcode design space.
func xcodeExplore() (core.Result, error) {
	xcodeOnce.Do(func() {
		var base server.Config
		base, xcodeErr = appxcode.ServerConfig(1)
		if xcodeErr != nil {
			return
		}
		xcodeRes, xcodeErr = engine.Explore(core.Sweep{
			Base:        base,
			DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9},
		}, tco.Default())
	})
	return xcodeRes, xcodeErr
}

// Figure15Table5 produces the XCode Pareto and Table 5.
func Figure15Table5() (frontier, table Artifact, err error) {
	res, err := xcodeExplore()
	if err != nil {
		return Artifact{}, Artifact{}, err
	}
	var rows [][]string
	for _, p := range res.Frontier {
		rows = append(rows, []string{
			f("%.3f", p.WattsPerOp), f("%.3f", p.DollarsPerOp),
			f("%.2f", p.Config.Voltage),
			fmt.Sprintf("%d", p.Config.DRAM.PerASIC),
			fmt.Sprintf("%d", p.Config.ChipsPerLane),
			f("%.3f", p.TCOPerOp()),
		})
	}
	frontier = render("fig15", "Video transcoding Pareto curve",
		[]string{"W_per_Kfps", "dollars_per_Kfps", "voltage_V", "drams_per_asic", "chips_per_lane", "TCO_per_Kfps"}, rows)
	table = optimaTable("table5", "Video transcoding ASIC Cloud optimization results", "Kfps",
		res.EnergyOptimal, res.TCOOptimal, res.CostOptimal)
	return frontier, table, nil
}

// Figure16 renders the XCode cost breakdown.
func Figure16() (Artifact, error) {
	res, err := xcodeExplore()
	if err != nil {
		return Artifact{}, err
	}
	return costBreakdown("fig16", "Video transcoding server cost breakdown",
		res.EnergyOptimal, res.TCOOptimal, res.CostOptimal), nil
}

// Figure17Table6 produces the CNN twelve-configuration study and
// Table 6.
func Figure17Table6() (figure, table Artifact, err error) {
	evals, err := appcnn.Explore(tco.Default())
	if err != nil {
		return Artifact{}, Artifact{}, err
	}
	var rows [][]string
	for _, e := range evals {
		rows = append(rows, []string{
			e.Shape.String(), fmt.Sprintf("%d", e.Systems),
			f("%.0f", e.Eval.DieArea),
			f("%.2f", e.Eval.WattsPerOp), f("%.2f", e.Eval.DollarsPerOp),
			f("%.2f", e.TCOPerOp()),
		})
	}
	figure = render("fig17", "Convolutional neural net Pareto curve (12 chip partitions)",
		[]string{"chip_shape", "systems", "die_mm2", "W_per_TOps", "dollars_per_TOps", "TCO_per_TOps"}, rows)

	energy, cost, tcoOpt := appcnn.Optima(evals)
	col := func(e appcnn.Evaluation) []string {
		return []string{
			e.Shape.String(), fmt.Sprintf("%d", e.Systems),
			f("%.0f", e.Eval.DieArea), f("%.0f", e.Eval.Perf),
			f("%.0f", e.Eval.WallPower), f("%.0f", e.Eval.Cost()),
			f("%.2f", e.Eval.WattsPerOp), f("%.2f", e.Eval.DollarsPerOp), f("%.2f", e.TCOPerOp()),
		}
	}
	hdr := []string{"chip", "systems", "die_mm2", "TOps", "W", "$", "W_per_TOps", "$_per_TOps", "TCO_per_TOps"}
	table = render("table6", "Convolutional neural network ASIC Cloud results", hdr,
		[][]string{
			append([]string{}, col(energy)...),
			append([]string{}, col(tcoOpt)...),
			append([]string{}, col(cost)...),
		})
	return figure, table, nil
}

// Table7 runs the deathmatch: CPU vs GPU vs this repository's own
// TCO-optimal ASIC clouds.
func Table7() (Artifact, error) {
	btc, err := bitcoinExplore()
	if err != nil {
		return Artifact{}, err
	}
	ltc, err := litecoinExplore()
	if err != nil {
		return Artifact{}, err
	}
	xc, err := xcodeExplore()
	if err != nil {
		return Artifact{}, err
	}
	cnnEvals, err := appcnn.Explore(tco.Default())
	if err != nil {
		return Artifact{}, err
	}
	_, _, cnnOpt := appcnn.Optima(cnnEvals)

	asic := map[string]float64{
		"Bitcoin":         btc.TCOOptimal.TCOPerOp(),
		"Litecoin":        ltc.TCOOptimal.TCOPerOp(),
		"Video Transcode": xc.TCOOptimal.TCOPerOp(),
		"Conv Neural Net": cnnOpt.TCOPerOp(),
	}
	var rows [][]string
	for _, m := range baseline.Table7() {
		match, err := baseline.Deathmatch(m, asic[m.Application])
		if err != nil {
			return Artifact{}, err
		}
		rows = append(rows, []string{
			m.Application, m.Cloud, m.Hardware, m.PerfMetric,
			f("%.4g", m.PowerPerOp()), f("%.4g", m.CostPerOp()), f("%.4g", m.TCOPerOp()),
			f("%.4g", asic[m.Application]), f("%.0f", match.Advantage),
		})
	}
	return render("table7", "Cloud deathmatch: CPU vs GPU vs ASIC (TCO per op/s)",
		[]string{"application", "cloud", "hardware", "unit",
			"W_per_op", "$_per_op", "TCO_per_op", "ASIC_TCO_per_op", "ASIC_advantage_x"}, rows), nil
}

// Figure18 renders the two-for-two breakeven curve.
func Figure18() (Artifact, error) {
	ratios := []float64{1.1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 9, 10}
	curve, err := nre.BreakevenCurve(ratios)
	if err != nil {
		return Artifact{}, err
	}
	var rows [][]string
	for i, r := range ratios {
		rows = append(rows, []string{f("%.1f", r), f("%.2f", curve[i])})
	}
	return render("fig18", "Breakeven point for ASIC Clouds (two-for-two rule)",
		[]string{"TCO_over_NRE", "required_TCO_improvement"}, rows), nil
}

// All regenerates every artifact in paper order.
func All() ([]Artifact, error) {
	var out []Artifact
	add := func(a Artifact, err error) error {
		if err != nil {
			return err
		}
		out = append(out, a)
		return nil
	}
	if err := add(Figure1()); err != nil {
		return nil, err
	}
	out = append(out, Figure5())
	if err := add(Figure6()); err != nil {
		return nil, err
	}
	if err := add(Figure8()); err != nil {
		return nil, err
	}
	if err := add(Figure9()); err != nil {
		return nil, err
	}
	if err := add(Figure10()); err != nil {
		return nil, err
	}
	if err := add(Figure11()); err != nil {
		return nil, err
	}
	fig12, table3, err := Figure12Table3()
	if err != nil {
		return nil, err
	}
	out = append(out, fig12, table3)
	if err := add(Figure13()); err != nil {
		return nil, err
	}
	if err := add(VoltageStacking()); err != nil {
		return nil, err
	}
	fig14, table4, err := Figure14Table4()
	if err != nil {
		return nil, err
	}
	out = append(out, fig14, table4)
	fig15, table5, err := Figure15Table5()
	if err != nil {
		return nil, err
	}
	out = append(out, fig15, table5)
	if err := add(Figure16()); err != nil {
		return nil, err
	}
	fig17, table6, err := Figure17Table6()
	if err != nil {
		return nil, err
	}
	out = append(out, fig17, table6)
	if err := add(Table7()); err != nil {
		return nil, err
	}
	if err := add(Figure18()); err != nil {
		return nil, err
	}
	if err := add(Scorecard()); err != nil {
		return nil, err
	}
	return out, nil
}

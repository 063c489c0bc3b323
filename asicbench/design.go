package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	appbitcoin "asiccloud/internal/apps/bitcoin"
	appcnn "asiccloud/internal/apps/cnn"
	applitecoin "asiccloud/internal/apps/litecoin"
	appxcode "asiccloud/internal/apps/xcode"
	"asiccloud/internal/core"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// designCall is one `asiccloud design` call's outcome.
type designCall struct {
	digest  string
	configs int64
	check   error // paper check, nil when it holds
}

// designApp runs one app exactly as `asiccloud design -app <name>` does.
type designApp struct {
	name string
	// sweep is the CLI's core sweep (nil for cnn).
	sweep func() (core.Sweep, error)
	run   func(ctx context.Context, tr *tracer, parent int) (designCall, error)
}

// designApps lists the paper's four apps. The three core sweeps run on a
// fresh engine on the retain-all-points path; cnn runs its own shape
// explorer.
var designApps []designApp

func init() {
	sweeps := []struct {
		name  string
		sweep func() (core.Sweep, error)
	}{
		{"bitcoin", func() (core.Sweep, error) {
			return core.Sweep{Base: server.Default(appbitcoin.RCA())}, nil
		}},
		{"litecoin", func() (core.Sweep, error) {
			return core.Sweep{Base: server.Default(applitecoin.RCA())}, nil
		}},
		{"xcode", func() (core.Sweep, error) {
			base, err := appxcode.ServerConfig(1)
			return core.Sweep{Base: base, DRAMPerASIC: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}, err
		}},
	}
	for _, s := range sweeps {
		designApps = append(designApps, designApp{name: s.name, sweep: s.sweep, run: sweepRunner(s.name, s.sweep)})
	}
	designApps = append(designApps, designApp{name: "cnn", run: runCNN})
}

func sweepRunner(name string, mk func() (core.Sweep, error)) func(context.Context, *tracer, int) (designCall, error) {
	return func(ctx context.Context, tr *tracer, parent int) (designCall, error) {
		sweep, err := mk()
		if err != nil {
			return designCall{}, err
		}
		sp := tr.begin("core.ExploreContext", parent)
		res, err := core.NewEngine(nil).ExploreContext(ctx, sweep, tco.Default())
		tr.end(sp)
		if err != nil {
			return designCall{}, err
		}
		call := designCall{digest: sweepDigest(res), configs: res.Pruned.Generated}
		if name == "bitcoin" {
			if v := res.TCOOptimal.Config.Voltage; v < 0.44 || v > 0.54 {
				call.check = fmt.Errorf("bitcoin TCO-optimal voltage %.2f V outside the paper's 0.44-0.54 V", v)
			}
		}
		return call, nil
	}
}

func runCNN(_ context.Context, tr *tracer, parent int) (designCall, error) {
	sp := tr.begin("cnn.Explore", parent)
	evals, err := appcnn.Explore(tco.Default())
	tr.end(sp)
	if err != nil {
		return designCall{}, err
	}
	sp = tr.begin("cnn.Optima", parent)
	energy, cost, tcoOpt := appcnn.Optima(evals)
	tr.end(sp)
	call := designCall{digest: cnnDigest(energy, cost, tcoOpt), configs: int64(len(evals))}
	if tcoOpt.Shape != (appcnn.ChipShape{A: 4, B: 2}) {
		call.check = fmt.Errorf("cnn TCO-optimal chip %v, paper says (4, 2)", tcoOpt.Shape)
	}
	return call, nil
}

// runDesign is the design workload: whole rounds of the four apps
// (designRound), each round in a seeded order, until the run length is
// used. Traced runs alternate traced and untraced rounds (for the
// overhead check) and then probe each layer once per app.
func runDesign(cfg config) (*outcome, error) {
	out := newOutcome()
	var gs goldens
	err := out.setUp(cfg, func() error {
		var err error
		if gs, err = loadGoldens(cfg.root); err != nil {
			return err
		}
		for _, app := range designApps {
			if _, ok := gs["design/"+app.name]; !ok {
				return fmt.Errorf("no golden digest for design/%s", app.name)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	rng := newPRNG(cfg.seed)
	tr := newTracer(cfg.trace)
	perApp := map[string][]opTime{}
	configsOf := map[string]int64{}
	tracedPer := map[string][]float64{}
	alloc0 := totalAlloc()
	start := time.Now()
	for round := 0; cfg.more(start, round); round++ {
		traced := cfg.trace && round%2 == 1
		for _, k := range rng.perm(len(designRound)) {
			app := designApps[designRound[k]]
			t := tr
			if !traced {
				t = offTracer
			}
			// Each `asiccloud design` call is a fresh process with an
			// empty heap; collecting first keeps one call's garbage from
			// being charged to the next.
			runtime.GC()
			sp := t.begin("design."+app.name, -1)
			var call designCall
			var err error
			op := timeOp(func() { call, err = app.run(ctx, t, sp) })
			t.end(sp)
			out.attempted++
			if err != nil {
				out.fail("design %s: %v", app.name, err)
				continue
			}
			if err := gs.check("design/"+app.name, call.digest); err != nil {
				out.fail("%v", err)
			} else if call.check != nil {
				out.fail("%v", call.check)
			}
			if traced {
				tracedPer[app.name] = append(tracedPer[app.name], op.d.Seconds())
				continue
			}
			perApp[app.name] = append(perApp[app.name], op)
			configsOf[app.name] = call.configs
		}
	}
	out.runLength = time.Since(start)
	allocMB := float64(totalAlloc()-alloc0) / mib / float64(out.attempted)
	rss := peakRSSMB()

	// round_s is one designRound with every call at its app's median
	// time, op_p50_ms the median call of that round, and configs_per_s
	// one round's configurations over one round's sweep time: figures a
	// single slow call cannot tilt.
	perRound := map[string]float64{}
	for _, k := range designRound {
		perRound[designApps[k].name]++
	}
	var roundConfigs, sweepWall, roundWall float64
	var meds, counts []float64
	calls, sweeps := 0, 0
	everyApp := true
	for _, app := range designApps {
		everyApp = everyApp && len(perApp[app.name]) > 0
		med := out.setQuietMedian(app.name+"_s", "s", perApp[app.name], 1)
		roundWall += perRound[app.name] * med
		meds, counts = append(meds, med), append(counts, perRound[app.name])
		calls += len(perApp[app.name])
		if app.sweep != nil {
			roundConfigs += perRound[app.name] * float64(configsOf[app.name])
			sweepWall += perRound[app.name] * med
			sweeps += len(perApp[app.name])
		}
	}
	if sweepWall > 0 {
		out.set("configs_per_s", "1/s", roundConfigs/sweepWall, sweeps)
	}
	// A round needs every app's median; with one missing (every call of
	// it failed) the run fails and reports no round figures.
	if everyApp {
		out.set("round_s", "s", roundWall, calls)
		if v, ok := roundMedian(meds, counts); ok {
			out.set("op_p50_ms", "ms", v*msPerSecond, calls)
		}
	}
	out.set("alloc_mb_per_op", "MB", allocMB, out.attempted)
	out.set("peak_rss_mb", "MB", rss, 0)
	if !cfg.trace {
		return out, nil
	}
	// Overhead: per app, traced median over untraced median, averaged
	// with each app weighted by its untraced time (a ratio of sums).
	var tSum, uSum float64
	for _, app := range designApps {
		tm, ok1 := quantile(tracedPer[app.name], 0.5)
		um, ok2 := quantile(seconds(perApp[app.name]), 0.5)
		if ok1 && ok2 {
			tSum += tm
			uSum += um
		}
	}
	if uSum > 0 {
		out.setDerived("trace_overhead_frac", "frac", (tSum-uSum)/uSum, 0)
	}
	if err := probeDesignLayers(ctx, tr, out); err != nil {
		return nil, err
	}
	out.spans = tr.snapshot()
	total, _ := layerTimes(out.spans)
	cnnCalls := len(tracedPer["cnn"])
	if cnnCalls > 0 {
		out.set("cnn.explore_s", "s", total["cnn.Explore"].Seconds()/float64(cnnCalls), cnnCalls)
		out.set("cnn.optima_s", "s", total["cnn.Optima"].Seconds()/float64(cnnCalls), cnnCalls)
	}
	return out, nil
}

// designRound is one round of the design workload, as indexes into
// designApps: the short calls repeat so that every app's median rests
// on several samples per run while xcode (~3 s) runs once.
var designRound = []int{0, 0, 0, 0, 1, 1, 2, 3, 3, 3, 3}

// offTracer is the shared disabled tracer for untraced operations.
var offTracer = newTracer(false)

func pointDollars(p core.Point) float64 { return p.DollarsPerOp }
func pointWatts(p core.Point) float64   { return p.WattsPerOp }
func pointTCO(p core.Point) float64     { return p.TCOPerOp() }
func pointCO2(p core.Point) float64     { return p.CO2PerOp() }

// probeDesignLayers times each layer under the three core sweeps once
// per app, summed over apps:
//   - core.grid_build_s: core.PlanSweep;
//   - core.chunk_eval_s: every chunk through Engine.EvaluateChunk on a
//     warm engine; server.thermal_plan_s is the same chunks on a cold
//     engine minus warm, and server.ns_per_config the warm time per
//     configuration;
//   - core.keep_overhead_s: a retain-all ExploreContext minus a
//     DiscardPoints one on the same warm engine;
//   - pareto.frontier_s: pareto.Frontier over the retained points on
//     both axis pairs.
func probeDesignLayers(ctx context.Context, tr *tracer, out *outcome) error {
	model := tco.Default()
	var grid, cold, warm, keep, discard, frontier time.Duration
	var configs, points, frontierSize, feasibleN int64
	for _, app := range designApps {
		if app.sweep == nil {
			continue
		}
		sweep, err := app.sweep()
		if err != nil {
			return err
		}
		root := tr.begin("probe."+app.name, -1)
		sp := tr.begin("core.PlanSweep", root)
		plan, err := core.PlanSweep(sweep, model, 0)
		grid += tr.end(sp)
		if err != nil {
			return err
		}
		eng := core.NewEngine(nil)
		evalAll := func(label string) (time.Duration, int64, error) {
			sp := tr.begin(label, root)
			var n int64
			for c := 0; c < plan.NumChunks(); c++ {
				csp := tr.begin("core.EvaluateChunk", sp)
				cr, err := eng.EvaluateChunk(ctx, sweep, model, plan.ChunkSize(), c)
				tr.end(csp)
				if err != nil {
					tr.end(sp)
					return 0, 0, err
				}
				n += cr.Pruned.Generated
			}
			return tr.end(sp), n, nil
		}
		dCold, _, err := evalAll("chunks.cold")
		if err != nil {
			return err
		}
		dWarm, n, err := evalAll("chunks.warm")
		if err != nil {
			return err
		}
		cold += dCold
		warm += dWarm
		configs += n

		sp = tr.begin("core.ExploreContext.discard", root)
		eng.DiscardPoints = true
		if _, err := eng.ExploreContext(ctx, sweep, model); err != nil {
			return err
		}
		discard += tr.end(sp)
		sp = tr.begin("core.ExploreContext.keep", root)
		eng.DiscardPoints = false
		res, err := eng.ExploreContext(ctx, sweep, model)
		keep += tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("pareto.Frontier", root)
		pareto.Frontier(res.Points, pointDollars, pointWatts)
		pareto.Frontier(res.Points, pointTCO, pointCO2)
		frontier += tr.end(sp)
		tr.end(root)
		points += int64(len(res.Points))
		frontierSize += int64(len(res.Frontier))
		feasibleN += res.Pruned.Feasible
	}
	out.set("core.grid_build_s", "s", grid.Seconds(), 3)
	out.set("core.chunk_eval_s", "s", warm.Seconds(), 3)
	out.setDerived("server.thermal_plan_s", "s", (cold - warm).Seconds(), 3)
	out.setDerived("server.ns_per_config", "ns", float64(warm)/float64(configs), int(configs))
	out.setDerived("core.keep_overhead_s", "s", (keep - discard).Seconds(), 3)
	out.set("pareto.frontier_s", "s", frontier.Seconds(), 3)
	out.set("core.points", "count", float64(points), 0)
	out.set("core.frontier_size", "count", float64(frontierSize), 0)
	out.setDerived("core.feasible_frac", "frac", float64(feasibleN)/float64(configs), int(configs))
	out.set("core.point_bytes", "B", float64(unsafe.Sizeof(core.Point{})), 0)
	return nil
}

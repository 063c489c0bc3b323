package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/obs"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
	"asiccloud/internal/thermal"
)

// DefaultChunkSize is the number of geometries one of ExploreContext's
// local worker goroutines claims at a time: small enough that the
// GOMAXPROCS workers of one process finish together, large enough that
// the claim counter is not contended. Distributed sweeps size their
// chunks to the fleet instead (FleetChunkSize).
const DefaultChunkSize = 4

// Engine runs design-space explorations as a reusable service instead
// of a one-shot function. It adds three things over the free Explore:
//
//   - Context-aware execution: ExploreContext honors cancellation and
//     deadlines, checking between geometries so an abort returns within
//     one geometry's work, with the partial PruneSummary intact.
//   - A concurrency-safe thermal-plan cache: server.ThermalPlan is a
//     pure function of the geometry (see server.PlanInputs), so the
//     engine memoizes its results — and its errors — across successive
//     sweeps. Repeated sweeps over overlapping grids (studies, figures,
//     scorecards) stop re-running heat-sink optimization entirely.
//   - Deterministic scheduling of PlanSweep's DefaultChunkSize chunks
//     with a streaming Pareto fold, so frontier-only callers can drop
//     Result.Points retention and run in O(frontier) memory while
//     getting byte-identical Frontier and optima.
//
// The zero-value fields select defaults; an Engine must be created with
// NewEngine. Engines are safe for concurrent use.
type Engine struct {
	// DiscardPoints drops Result.Points: it comes back nil and peak
	// memory is bounded by the frontier size instead of the feasible
	// set. Frontier and the optima come from the same streaming Pareto
	// fold either way, so they are byte-identical to a retaining run.
	DiscardPoints bool
	// Workers caps the sweep's parallelism (0 selects GOMAXPROCS).
	// Results do not depend on the worker count or scheduling order.
	Workers int
	// Log receives sweep start/finish/abort lines with plan-cache
	// hit/miss deltas, correlated to the sweep's trace via the context.
	// Nil logs nothing.
	Log *slog.Logger

	rec *obs.Recorder

	mu    sync.RWMutex
	plans map[planKey]planEntry

	hits, misses    atomic.Int64
	hitCtr, missCtr *obs.Counter
}

// planKey identifies a memoized thermal plan: the geometry coordinates
// the sweep varies plus server.PlanInputs, which is by contract exactly
// the set of Config fields ThermalPlan reads. Two keys comparing equal
// therefore guarantee identical plans, even across sweeps with
// different bases sharing one engine.
type planKey struct {
	rcasPerChip  int
	chipsPerLane int
	dramKind     dram.Kind
	dramPerASIC  int
	inputs       server.PlanInputs
}

// planEntry memoizes both outcomes of ThermalPlan: infeasible
// geometries are as expensive to rediscover as feasible ones are to
// re-optimize, so errors are cached too.
type planEntry struct {
	plan thermal.OptimizeResult
	err  error
}

// NewEngine returns an engine with an empty plan cache. The optional
// recorder (nil is a valid no-op) receives the explorer's spans and
// counters plus the engine's plan-cache hit/miss counters.
func NewEngine(rec *obs.Recorder) *Engine {
	reg := rec.Registry()
	reg.SetHelp("asiccloud_engine_plan_cache_hits_total",
		"thermal plans served from the engine's geometry cache")
	reg.SetHelp("asiccloud_engine_plan_cache_misses_total",
		"thermal plans computed by heat-sink optimization (then cached)")
	return &Engine{
		rec:     rec,
		plans:   make(map[planKey]planEntry),
		hitCtr:  rec.Counter("asiccloud_engine_plan_cache_hits_total"),
		missCtr: rec.Counter("asiccloud_engine_plan_cache_misses_total"),
	}
}

// CacheStats is a snapshot of the plan cache's effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups since the engine was created.
	Hits, Misses int64
	// Entries counts resident plans (feasible and infeasible).
	Entries int
}

// CacheStats reports plan-cache hit/miss totals and residency.
func (e *Engine) CacheStats() CacheStats {
	e.mu.RLock()
	n := len(e.plans)
	e.mu.RUnlock()
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load(), Entries: n}
}

// thermalPlan memoizes server.ThermalPlan per geometry. Concurrent
// misses on the same key may compute the plan twice; both arrive at the
// identical value (ThermalPlan is pure), so the last store wins
// harmlessly.
func (e *Engine) thermalPlan(cfg server.Config) (thermal.OptimizeResult, error) {
	key := planKey{
		rcasPerChip:  cfg.RCAsPerChip,
		chipsPerLane: cfg.ChipsPerLane,
		dramKind:     cfg.DRAM.Device.Kind,
		dramPerASIC:  cfg.DRAM.PerASIC,
		inputs:       cfg.PlanInputs(),
	}
	e.mu.RLock()
	ent, ok := e.plans[key]
	e.mu.RUnlock()
	if ok {
		e.hits.Add(1)
		e.hitCtr.Inc()
		return ent.plan, ent.err
	}
	plan, err := server.ThermalPlan(cfg)
	e.misses.Add(1)
	e.missCtr.Inc()
	e.mu.Lock()
	e.plans[key] = planEntry{plan: plan, err: err}
	e.mu.Unlock()
	return plan, err
}

// Explore runs the sweep without a deadline; see ExploreContext.
func (e *Engine) Explore(sweep Sweep, model tco.Model) (Result, error) {
	return e.ExploreContext(context.Background(), sweep, model)
}

// FindTCOOptimal returns the sweep's TCO-optimal point: Explore's
// TCOOptimal, from a sweep that retains no points whatever
// DiscardPoints says.
func (e *Engine) FindTCOOptimal(sweep Sweep, model tco.Model) (Point, error) {
	res, err := e.explore(context.Background(), sweep, model, false)
	return res.TCOOptimal, err
}

// FindCarbonOptimal returns the sweep's CO2e-optimal point: Explore's
// CarbonOptimal, from a sweep that retains no points.
func (e *Engine) FindCarbonOptimal(sweep Sweep, model tco.Model) (Point, error) {
	res, err := e.explore(context.Background(), sweep, model, false)
	return res.CarbonOptimal, err
}

// evalGeometry evaluates every (stacking option, voltage) configuration
// of one geometry against its precomputed thermal plan, appending the
// feasible points to pts and returning the (possibly grown) scratch
// slices. This is the sweep's innermost loop — everything here runs
// once per candidate configuration, millions of times per sweep, and
// the ROADMAP's configs/sec budget assumes it is allocation-free in
// steady state; the hotalloc analyzer enforces that transitively.
//
//asic:hotpath
func (e *Engine) evalGeometry(cfg server.Config, plan thermal.OptimizeResult,
	stackedOptions []bool, voltages []float64, model tco.Model,
	cm carbon.Model, embodiedKg float64,
	pts []Point, column []server.Evaluation, sum *PruneSummary, ctr *exploreCounters) ([]Point, []server.Evaluation) {

	for _, stacked := range stackedOptions {
		cfg.Stacked = stacked
		col, thermalPruned, evalPruned := server.EvaluateColumn(cfg, plan, voltages, column[:0])
		column = col
		if thermalPruned > 0 {
			sum.add(PruneThermal, int64(thermalPruned))
			ctr.thermal.Add(int64(thermalPruned))
		}
		if evalPruned > 0 {
			sum.add(PruneEval, int64(evalPruned))
			ctr.evalErr.Add(int64(evalPruned))
		}
		for _, ev := range col {
			//lint:ignore hotalloc appends into the per-worker scratch; capacity tops out at the largest chunk and growth amortizes to zero
			pts = append(pts, Point{
				Evaluation: ev,
				TCO:        model.Of(ev.DollarsPerOp, ev.WattsPerOp),
				Carbon:     cm.Of(embodiedKg, ev.Perf, ev.WallPower),
			})
			sum.Feasible++
			ctr.feasible.Inc()
		}
	}
	return pts, column
}

// pointDollars and pointWatts are the two classic Pareto objectives;
// pointTCO and pointCO2 are the axes of the carbon frontier. They are
// the folds' by-value accessors; the sweep itself reads the same keys
// by pointer (see foldState.add and sortedPoints).
func pointDollars(p Point) float64 { return p.DollarsPerOp }
func pointWatts(p Point) float64   { return p.WattsPerOp }
func pointTCO(p Point) float64     { return p.TCOPerOp() }
func pointCO2(p Point) float64     { return p.CO2PerOp() }

// lessPoint is the deterministic total order results are reported in:
// ascending $ per op/s, then W per op/s, then the configuration
// coordinates so exact metric ties still order identically regardless
// of scheduling. NaN metrics order last (pareto.Compare), keeping the
// sort a strict weak order even for degenerate points.
func lessPoint(a, b *Point) bool {
	if c := pareto.Compare(a.DollarsPerOp, b.DollarsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.WattsPerOp, b.WattsPerOp); c != 0 {
		return c < 0
	}
	if c := pareto.Compare(a.Config.Voltage, b.Config.Voltage); c != 0 {
		return c < 0
	}
	if a.Config.Stacked != b.Config.Stacked {
		return !a.Config.Stacked
	}
	if a.Config.ChipsPerLane != b.Config.ChipsPerLane {
		return a.Config.ChipsPerLane < b.Config.ChipsPerLane
	}
	if a.Config.RCAsPerChip != b.Config.RCAsPerChip {
		return a.Config.RCAsPerChip < b.Config.RCAsPerChip
	}
	return a.Config.DRAM.PerASIC < b.Config.DRAM.PerASIC
}

// sortKey is the compact record sortedPoints orders instead of whole
// Points: lessPoint's leading key and the point it stands for.
type sortKey struct {
	dollars float64
	p       *Point
}

// sortedPoints gathers the points of every chunk into one exact-size
// slice in lessPoint order. The sort moves 16-byte keys rather than
// 1 KB Points, and each Point is copied exactly once, into its final
// place. Keys that tie on $ per op/s fall back to lessPoint on the
// points themselves, so the order is lessPoint's by construction. The
// output is read through the sorted keys, so it takes its order from
// the sort alone, whatever order the chunks arrived in.
func sortedPoints(chunks [][]Point) []Point {
	n := 0
	for _, pts := range chunks {
		n += len(pts)
	}
	// The output is allocated before the keys: on a large sweep that
	// allocation is what starts a collection, and keys allocated after
	// it can reuse what it frees instead of adding to the peak heap.
	out := make([]Point, n)
	keys := make([]sortKey, 0, n)
	for _, pts := range chunks {
		for i := range pts {
			keys = append(keys, sortKey{pts[i].DollarsPerOp, &pts[i]})
		}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := pareto.Compare(a.dollars, b.dollars); c != 0 {
			return c
		}
		switch {
		case lessPoint(a.p, b.p):
			return -1
		case lessPoint(b.p, a.p):
			return 1
		}
		return 0
	})
	for i, k := range keys {
		out[i] = *k.p
	}
	return out
}

// optAcc tracks a running argmin with lessPoint as the tie-break, so a
// streaming fold selects exactly the point pareto.ArgMin would pick
// from the lessPoint-sorted slice. NaN values never win.
type optAcc struct {
	ok bool
	v  float64
	p  Point
}

// add offers *p with objective value v; the point is copied only when
// it becomes the new optimum.
func (a *optAcc) add(v float64, p *Point) {
	if math.IsNaN(v) {
		return
	}
	//lint:ignore floatcmp the tie-break must fire on exact metric equality to mirror ArgMin over a sorted slice
	if !a.ok || v < a.v || (v == a.v && lessPoint(p, &a.p)) {
		a.ok, a.v, a.p = true, v, *p
	}
}

func (a *optAcc) merge(o *optAcc) {
	if o.ok {
		a.add(o.v, &o.p)
	}
}

// foldState is the streaming reduction of a sweep, or of one chunk of
// it: the (dollars, watts) and (TCO, CO2e) Pareto folds plus the four
// optimum accumulators. Workers, chunk evaluation and ResultMerger all
// reduce through it, so every path folds points identically.
type foldState struct {
	fold, cfold                     *pareto.Fold[Point]
	energy, cost, tcoOpt, carbonOpt optAcc
}

func newFoldState() *foldState {
	return &foldState{
		fold:  pareto.NewFold(pointDollars, pointWatts),
		cfold: pareto.NewFold(pointTCO, pointCO2),
	}
}

// add folds one point in by pointer, reading each objective once.
func (s *foldState) add(p *Point) {
	t, c := p.TCO.Total(), p.Carbon.Total()
	s.fold.AddKeys(p.DollarsPerOp, p.WattsPerOp, p)
	s.cfold.AddKeys(t, c, p)
	s.energy.add(p.WattsPerOp, p)
	s.cost.add(p.DollarsPerOp, p)
	s.tcoOpt.add(t, p)
	s.carbonOpt.add(c, p)
}

// merge folds another state's survivors and optima into s.
func (s *foldState) merge(o *foldState) {
	s.fold.Merge(o.fold)
	s.cfold.Merge(o.cfold)
	s.energy.merge(&o.energy)
	s.cost.merge(&o.cost)
	s.tcoOpt.merge(&o.tcoOpt)
	s.carbonOpt.merge(&o.carbonOpt)
}

// geom is one deduplicated cell of the geometry grid.
type geom struct {
	rcasPerChip int
	chipsLane   int
	dramPerASIC int
}

// ExploreContext runs the brute-force search in parallel, checking ctx
// between geometries: on cancellation or deadline it stops within one
// geometry's work and returns a context.Canceled- (or
// DeadlineExceeded-) wrapped error alongside a Result whose Pruned
// summary exactly accounts for the configurations evaluated so far
// (Generated == Feasible + PrunedTotal still holds on abort).
//
// It is PlanSweep at DefaultChunkSize followed by local workers on the
// plan's chunks. Scheduling is deterministic: workers claim the fixed
// chunks dynamically, every point goes through the order-independent
// streaming Pareto fold, and retained points are put in lessPoint
// order, so Result is identical for any worker count and any
// scheduling interleave.
func (e *Engine) ExploreContext(ctx context.Context, sweep Sweep, model tco.Model) (Result, error) {
	return e.explore(ctx, sweep, model, !e.DiscardPoints)
}

// explore is ExploreContext with point retention chosen per call, so
// callers that read no points do not have to set DiscardPoints on a
// shared engine.
func (e *Engine) explore(ctx context.Context, sweep Sweep, model tco.Model, keep bool) (Result, error) {
	// Parent under whatever the context carries (the daemon's job span,
	// a remote traceparent) so one request is one connected trace; with
	// a bare context this starts a fresh trace, as Explore always did.
	ctx, root := e.rec.StartSpan(ctx, "explore")
	defer root.End()
	gridSpan := root.Child("grid_build")
	plan, err := planSweep(sweep, model, DefaultChunkSize)
	gridSpan.End()
	if err != nil {
		if plan != nil {
			return Result{Pruned: plan.GridSummary()}, err
		}
		return Result{}, err
	}
	return e.explorePlan(ctx, plan, keep)
}

// explorePlan sweeps every chunk of the plan on local workers and
// reduces them to a Result; keep also gathers every feasible point
// into Result.Points.
func (e *Engine) explorePlan(ctx context.Context, plan *SweepPlan, keep bool) (Result, error) {
	rec := e.rec
	log := obs.OrNop(e.Log)
	from := time.Now()
	hits0, misses0 := e.hits.Load(), e.misses.Load()
	ctr := newExploreCounters(rec)
	// Quantized cells enter (and leave) the pipeline at grid build; the
	// surviving geometries are counted as workers actually claim them,
	// so an aborted sweep's accounting stays exact.
	summary := plan.GridSummary()
	ctr.configs.Add(summary.Generated)
	ctr.quantized.Add(summary.Reasons[PruneQuantization])
	ctr.duplicates.Add(summary.Duplicates)

	sweepCtx, sweepSpan := rec.StartSpan(ctx, "sweep")
	numChunks, geoms := plan.NumChunks(), plan.Geometries()
	var chunkPoints [][]Point
	if keep {
		chunkPoints = make([][]Point, numChunks)
	}
	folded := newFoldState()
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		nextChunk atomic.Int64
		claimed   atomic.Int64
	)
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, numChunks)
	log.LogAttrs(ctx, slog.LevelInfo, "sweep started",
		slog.Int("geometries", geoms),
		slog.Int("workers", workers),
		slog.Int("chunks", numChunks),
		slog.Int("voltages", len(plan.grid.voltages)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			cw := chunkWorker{e: e, plan: plan, ctr: &ctr, claimed: &claimed}
			// Without retention each geometry's points are folded as
			// they are made; with it they stay in the worker's scratch
			// until the chunk is copied out.
			var local *foldState
			if !keep {
				local = newFoldState()
			}
			workerFrom := time.Now()
			var busy time.Duration
			for ctx.Err() == nil {
				c := int(nextChunk.Add(1)) - 1
				if c >= numChunks {
					break
				}
				_, chunkSpan := rec.StartSpan(sweepCtx, "chunk")
				chunkFrom := time.Now()
				err := cw.eval(ctx, c, local)
				busy += time.Since(chunkFrom)
				if keep {
					// Retained chunks get an exact-size copy so the
					// scratch stays with the worker and Result.Points
					// carries no append slack.
					pts := make([]Point, len(cw.scratch))
					copy(pts, cw.scratch)
					chunkPoints[c] = pts
				}
				chunkSpan.End()
				if err != nil {
					break // the abort is reported once every worker is done
				}
			}
			if total := time.Since(workerFrom); total > 0 {
				rec.Gauge("asiccloud_explore_worker_utilization",
					"worker", strconv.Itoa(worker)).Set(busy.Seconds() / total.Seconds())
			}
			mu.Lock()
			summary.merge(cw.sum)
			if local != nil {
				folded.merge(local)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sweepSpan.End()

	if err := ctx.Err(); err != nil {
		log.LogAttrs(ctx, slog.LevelWarn, "sweep aborted",
			slog.Int64("processed_geometries", claimed.Load()),
			slog.Int("total_geometries", geoms),
			slog.String("cause", err.Error()))
		return Result{Pruned: summary}, fmt.Errorf(
			"core: exploration aborted after %d of %d geometries (%s): %w",
			claimed.Load(), geoms, summary, err)
	}
	log.LogAttrs(ctx, slog.LevelInfo, "sweep finished",
		slog.Int64("generated", summary.Generated),
		slog.Int64("feasible", summary.Feasible),
		slog.Int64("plan_cache_hits", e.hits.Load()-hits0),
		slog.Int64("plan_cache_misses", e.misses.Load()-misses0),
		slog.Float64("duration_seconds", time.Since(from).Seconds()))
	if summary.Feasible == 0 {
		return Result{Pruned: summary}, fmt.Errorf(
			"core: no feasible design point in the swept space (%s)", summary)
	}

	_, paretoSpan := rec.StartSpan(ctx, "pareto")
	res := Result{Pruned: summary}
	if keep {
		// The retained points are folded once they are in place, by
		// pointer: no per-point key arrays for the frontiers and optima.
		res.Points = sortedPoints(chunkPoints)
		for i := range res.Points {
			folded.add(&res.Points[i])
		}
	}
	// Both paths report frontiers and optima from the fold:
	// finishFold applies lessPoint's tie-breaking to the survivors, so
	// they are byte-identical to a frontier and argmin over every point
	// in lessPoint order, and it is shared with ResultMerger.Finish,
	// which keeps a distributed merge byte-identical too.
	finishFold(folded, &res)
	paretoSpan.End()
	rec.Gauge("asiccloud_explore_frontier_size").Set(float64(len(res.Frontier)))
	return res, nil
}

// NormalizeVoltages returns a sorted, de-duplicated copy of a
// user-supplied voltage grid (V), rejecting non-positive (or NaN)
// entries outright — operating voltages are physical quantities, and
// the sweep's thermal early break assumes an ascending grid. It is
// exported so request canonicalizers (the asiccloudd service) can apply
// exactly the normalization the engine will, making "same grid after
// normalization" and "same request hash" the same statement.
func NormalizeVoltages(vs []float64) ([]float64, error) {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("core: invalid operating voltage %v in Sweep.Voltages (must be positive)", v)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	j := 0
	for i := 1; i < len(out); i++ {
		//lint:ignore floatcmp dedup targets bit-identical grid entries; distinct near-duplicates are kept by design
		if out[i] == out[j] {
			continue
		}
		j++
		out[j] = out[i]
	}
	return out[:j+1], nil
}

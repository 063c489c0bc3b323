package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"asiccloud/internal/carbon"
	"asiccloud/internal/dram"
	"asiccloud/internal/pareto"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// This file is the sweep's distribution seam. ExploreContext and the
// distributed coordinator/worker split share three pieces:
//
//   - buildGrid resolves a Sweep into the deterministic voltage grid
//     and deduplicated geometry work list, with grid-construction
//     prunes (quantization, duplicates) accounted exactly once;
//   - evalCell evaluates one geometry cell (DRAM subsystem, memoized
//     thermal plan, voltage column) identically wherever it runs;
//   - the chunk partition work[c*size : (c+1)*size] is the same one
//     ExploreContext's workers claim, so a remote worker evaluating
//     chunk c produces exactly the points a local worker would have.
//
// ChunkResult carries a chunk's fold survivors, optimum candidates and
// prune counts over the wire; ResultMerger folds them back together.
// Because pareto.Fold merge is associative and order-independent and
// optAcc merge is commutative, the merged Result is byte-identical to
// a single-process ExploreContext run regardless of which worker
// evaluated which chunk, how chunks were requeued, or arrival order.

// sweepGrid is the resolved, deterministic form of a Sweep: the
// normalized voltage grid, the deduplicated geometry work list, and
// the prune accounting of grid construction itself.
type sweepGrid struct {
	voltages       []float64
	stackedOptions []bool
	// carbon is the resolved emission model (Sweep.Carbon or the
	// default), validated once at grid build so every chunk of a sweep
	// — local or remote — prices carbon identically.
	carbon carbon.Model
	// perGeom is the candidate-configuration count one geometry spawns.
	perGeom int64
	work    []geom
	// summary holds the grid-build prunes: quantized cells and
	// duplicate geometries. Per-geometry prunes are counted where the
	// geometry is evaluated, so a distributed sweep counts each prune
	// exactly once.
	summary PruneSummary
}

// buildGrid resolves the sweep's grids and geometry work list. The
// returned error covers voltage-grid problems only; an empty work list
// is the caller's check (ExploreContext and PlanSweep both report it
// with the grid summary attached).
func buildGrid(sweep Sweep) (*sweepGrid, error) {
	g := &sweepGrid{carbon: carbon.Default()}
	if sweep.Carbon != nil {
		g.carbon = *sweep.Carbon
	}
	if err := g.carbon.Validate(); err != nil {
		return nil, err
	}
	voltages := sweep.Voltages
	if len(voltages) > 0 {
		var err error
		// The thermal early break prunes "all higher voltages" after the
		// first ErrThermal, which is only sound on an ascending grid: a
		// user-supplied unsorted list would prune voltages that are
		// actually lower and feasible.
		if voltages, err = NormalizeVoltages(voltages); err != nil {
			return nil, err
		}
		// Reject out-of-range grids once, before the sweep: every point
		// of an out-of-range voltage would otherwise fail inside
		// vlsi.Spec.At per configuration (constructing an error each
		// time) and be silently counted as an eval prune. Failing loudly
		// here is both cheaper and more honest.
		lo, hi := sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage()
		if voltages[0] < lo-1e-9 || voltages[len(voltages)-1] > hi+1e-9 {
			return nil, fmt.Errorf(
				"core: voltage grid [%.3f, %.3f] V outside the RCA's operating range [%.3f, %.3f] V",
				voltages[0], voltages[len(voltages)-1], lo, hi)
		}
	} else {
		voltages = VoltageGrid(sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage())
	}
	if len(voltages) == 0 {
		return nil, fmt.Errorf(
			"core: empty voltage grid (RCA voltage range %.2f..%.2f V; need 0 <= lo <= hi)",
			sweep.Base.RCA.MinVoltage(), sweep.Base.RCA.MaxVoltage())
	}
	g.voltages = voltages
	silicon := sweep.SiliconPerLane
	if len(silicon) == 0 {
		silicon = DefaultSiliconPerLane()
	}
	chips := sweep.ChipsPerLane
	if len(chips) == 0 {
		chips = DefaultChipsPerLane()
	}
	drams := sweep.DRAMPerASIC
	if len(drams) == 0 {
		drams = []int{0}
	}
	g.stackedOptions = []bool{false}
	if sweep.Stacked {
		g.stackedOptions = append(g.stackedOptions, true)
	}
	g.perGeom = int64(len(g.stackedOptions)) * int64(len(voltages))

	// Build the geometry work list, de-duplicating silicon targets that
	// quantize to the same RCAs per chip.
	seen := make(map[geom]bool)
	for _, sil := range silicon {
		for _, n := range chips {
			r := int(math.Round(sil / float64(n) / sweep.Base.RCA.Area))
			if r < 1 {
				// The whole (silicon, chips) cell — every DRAM count,
				// stacking option and voltage — dies to quantization.
				cell := int64(len(drams)) * g.perGeom
				g.summary.Generated += cell
				g.summary.add(PruneQuantization, cell)
				continue
			}
			for _, d := range drams {
				cell := geom{rcasPerChip: r, chipsLane: n, dramPerASIC: d}
				if seen[cell] {
					g.summary.Duplicates++
					continue
				}
				seen[cell] = true
				g.work = append(g.work, cell)
			}
		}
	}
	return g, nil
}

// emptySpaceError is the shared "nothing to sweep" report: the summary
// rides along so callers see the per-reason counts, not a bare message.
func emptySpaceError(summary PruneSummary) error {
	return fmt.Errorf(
		"core: empty design space: every silicon/chips combination quantizes below one RCA per chip (%s)",
		summary)
}

// evalCell evaluates one deduplicated geometry cell: DRAM subsystem
// construction, the memoized thermal plan, then the per-voltage column
// walk (evalGeometry). Feasible points are appended to scratch; every
// candidate the cell generates is accounted in sum. The returned
// slices are the (possibly grown) scratch buffers.
func (e *Engine) evalCell(g geom, base server.Config, grid *sweepGrid, model tco.Model,
	scratch []Point, column []server.Evaluation, sum *PruneSummary, ctr *exploreCounters) ([]Point, []server.Evaluation) {

	sum.Generated += grid.perGeom
	ctr.configs.Add(grid.perGeom)
	cfg := base
	cfg.RCAsPerChip = g.rcasPerChip
	cfg.ChipsPerLane = g.chipsLane
	if g.dramPerASIC > 0 {
		sub, err := dram.NewSubsystem(cfg.DRAM.Device.Kind, g.dramPerASIC)
		if err != nil {
			sum.add(PruneDRAM, grid.perGeom)
			ctr.dramErr.Add(grid.perGeom)
			return scratch, column
		}
		cfg.DRAM = sub
	} else {
		cfg.DRAM = dram.Subsystem{}
	}
	plan, err := e.thermalPlan(cfg)
	if err != nil {
		// Geometry does not fit at any voltage.
		sum.add(PruneThermal, grid.perGeom)
		ctr.thermal.Add(grid.perGeom)
		return scratch, column
	}
	// Embodied carbon is a pure function of the geometry — die area and
	// chip count are constant across the voltage column — so it is
	// computed once per cell and amortized per point inside
	// evalGeometry.
	embodiedKg := grid.carbon.EmbodiedServerKg(cfg.Process, cfg.DieArea(),
		cfg.ChipsPerLane*cfg.Lanes)
	return e.evalGeometry(cfg, plan, grid.stackedOptions, grid.voltages, model,
		grid.carbon, embodiedKg, scratch, column, sum, ctr)
}

// SweepPlan is the deterministic partition of a sweep into chunks: the
// unit a distributed coordinator enumerates, serializes, and fans out.
// The same (Sweep, chunk size) always yields the same partition, so a
// chunk index is a stable work identity across processes and retries.
type SweepPlan struct {
	grid      *sweepGrid
	chunkSize int
}

// PlanSweep validates the sweep and resolves its chunk partition.
// chunkSize <= 0 selects DefaultChunkSize. The "empty design space"
// failure mode is reported here, exactly as ExploreContext reports it.
func PlanSweep(sweep Sweep, model tco.Model, chunkSize int) (*SweepPlan, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := sweep.Base.RCA.Validate(); err != nil {
		return nil, err
	}
	grid, err := buildGrid(sweep)
	if err != nil {
		return nil, err
	}
	if len(grid.work) == 0 {
		return nil, emptySpaceError(grid.summary)
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &SweepPlan{grid: grid, chunkSize: chunkSize}, nil
}

// ChunkSize is the geometry count per chunk (the last chunk may be
// short).
func (p *SweepPlan) ChunkSize() int { return p.chunkSize }

// Geometries is the deduplicated geometry count in the work list.
func (p *SweepPlan) Geometries() int { return len(p.grid.work) }

// NumChunks is how many chunks the work list partitions into.
func (p *SweepPlan) NumChunks() int {
	return (len(p.grid.work) + p.chunkSize - 1) / p.chunkSize
}

// GridSummary returns the grid-construction prune accounting
// (quantized cells, duplicate geometries). It seeds a ResultMerger
// exactly once; chunk results deliberately exclude these counts so a
// re-evaluated (requeued) chunk cannot double-count them.
func (p *SweepPlan) GridSummary() PruneSummary {
	var s PruneSummary
	s.merge(p.grid.summary)
	return s
}

// ChunkResult is one chunk's contribution to a sweep: the chunk-local
// Pareto fold survivors, the three chunk-local optimum candidates, and
// the chunk's exact per-geometry prune accounting. It is the payload a
// distributed worker returns, so every field is JSON-serializable and
// float64 values survive the wire exactly (encoding/json emits the
// shortest round-tripping form).
type ChunkResult struct {
	Chunk     int `json:"chunk"`
	NumChunks int `json:"num_chunks"`
	// Frontier is the chunk-local fold's survivor set in (dollars,
	// watts) staircase order — not the global frontier; merging every
	// chunk's survivors reproduces it.
	Frontier []Point `json:"frontier,omitempty"`
	// CarbonFrontier is the chunk-local (TCO per op/s, kg CO2e per
	// op/s) fold's survivor set, merged the same way Frontier is.
	CarbonFrontier []Point `json:"carbon_frontier,omitempty"`
	// EnergyOptimal, CostOptimal, TCOOptimal and CarbonOptimal are the
	// chunk's argmin candidates under the engine's deterministic
	// tie-break; nil when the chunk has no feasible point.
	EnergyOptimal *Point `json:"energy_optimal,omitempty"`
	CostOptimal   *Point `json:"cost_optimal,omitempty"`
	TCOOptimal    *Point `json:"tco_optimal,omitempty"`
	CarbonOptimal *Point `json:"carbon_optimal,omitempty"`
	// Pruned accounts the chunk's own candidates only (thermal, DRAM
	// and eval prunes plus feasible counts); grid-build prunes live in
	// SweepPlan.GridSummary.
	Pruned PruneSummary `json:"pruned"`
}

// EvaluateChunk evaluates one chunk of the sweep's deterministic
// partition on this engine — the distributed worker's unit of work.
// The partition is the same one ExploreContext schedules internally,
// so evaluating every chunk exactly once (on any mix of processes and
// engines) and merging with ResultMerger reproduces ExploreContext's
// Result byte for byte. The engine's thermal-plan cache carries over
// between chunks, so a worker handling many chunks of one sweep warms
// up just like a local worker goroutine would.
func (e *Engine) EvaluateChunk(ctx context.Context, sweep Sweep, model tco.Model,
	chunkSize, chunk int) (ChunkResult, error) {

	if err := model.Validate(); err != nil {
		return ChunkResult{}, err
	}
	if err := sweep.Base.RCA.Validate(); err != nil {
		return ChunkResult{}, err
	}
	grid, err := buildGrid(sweep)
	if err != nil {
		return ChunkResult{}, err
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	numChunks := (len(grid.work) + chunkSize - 1) / chunkSize
	if chunk < 0 || chunk >= numChunks {
		return ChunkResult{}, fmt.Errorf(
			"core: chunk %d out of range (sweep has %d chunks of %d geometries)",
			chunk, numChunks, chunkSize)
	}
	ctr := newExploreCounters(e.rec)
	lo := chunk * chunkSize
	hi := min(lo+chunkSize, len(grid.work))
	var (
		sum     PruneSummary
		scratch []Point
		column  []server.Evaluation
	)
	folded := newFoldState()
	for _, g := range grid.work[lo:hi] {
		if err := ctx.Err(); err != nil {
			return ChunkResult{}, fmt.Errorf("core: chunk %d aborted: %w", chunk, err)
		}
		scratch = scratch[:0]
		scratch, column = e.evalCell(g, sweep.Base, grid, model, scratch, column, &sum, &ctr)
		for i := range scratch {
			folded.add(&scratch[i])
		}
	}
	return ChunkResult{Chunk: chunk, NumChunks: numChunks,
		Frontier:       folded.fold.Points(),
		CarbonFrontier: folded.cfold.Points(),
		EnergyOptimal:  folded.energy.point(),
		CostOptimal:    folded.cost.point(),
		TCOOptimal:     folded.tcoOpt.point(),
		CarbonOptimal:  folded.carbonOpt.point(),
		Pruned:         sum}, nil
}

// ResultMerger folds ChunkResults back into one Result. Merging is
// order-independent and tolerant of which worker produced each chunk;
// the caller guarantees each chunk index is merged exactly once (the
// pool's first-result-wins dedup provides this under requeue).
type ResultMerger struct {
	folded  *foldState
	summary PruneSummary
	merged  int
}

// NewResultMerger seeds a merger with the plan's grid-build prune
// accounting (counted exactly once per sweep, never per chunk).
func NewResultMerger(plan *SweepPlan) *ResultMerger {
	return &ResultMerger{folded: newFoldState(), summary: plan.GridSummary()}
}

// Add folds one chunk's contribution in.
func (m *ResultMerger) Add(cr ChunkResult) {
	s := m.folded
	for i := range cr.Frontier {
		p := &cr.Frontier[i]
		s.fold.AddKeys(p.DollarsPerOp, p.WattsPerOp, p)
	}
	for i := range cr.CarbonFrontier {
		p := &cr.CarbonFrontier[i]
		s.cfold.AddKeys(p.TCO.Total(), p.Carbon.Total(), p)
	}
	if p := cr.EnergyOptimal; p != nil {
		s.energy.add(p.WattsPerOp, p)
	}
	if p := cr.CostOptimal; p != nil {
		s.cost.add(p.DollarsPerOp, p)
	}
	if p := cr.TCOOptimal; p != nil {
		s.tcoOpt.add(p.TCO.Total(), p)
	}
	if p := cr.CarbonOptimal; p != nil {
		s.carbonOpt.add(p.Carbon.Total(), p)
	}
	m.summary.merge(cr.Pruned)
	m.merged++
}

// Merged is how many chunks have been folded in.
func (m *ResultMerger) Merged() int { return m.merged }

// Finish assembles the final Result: the same sort → Frontier → Select
// normalization and optimum extraction ExploreContext's streaming path
// applies, so the output is byte-identical to a single-process run
// once every chunk has been merged. The Pruned summary is populated
// even on the no-feasible-point error, mirroring ExploreContext.
func (m *ResultMerger) Finish() (Result, error) {
	res := Result{Pruned: m.summary}
	if m.summary.Feasible == 0 {
		return res, fmt.Errorf(
			"core: no feasible design point in the swept space (%s)", m.summary)
	}
	finishFold(m.folded, &res)
	return res, nil
}

// finishFold turns fold survivors and optimum accumulators into the
// reported frontiers and optima. Each fold's survivor set is
// order-independent; sorting it and re-running Frontier applies the
// same duplicate tie-breaking a frontier over every point in lessPoint
// order would, so both the (dollars, watts) frontier and the (TCO, CO2e)
// frontier are byte-identical however the points were folded.
//
//asic:canonical
func finishFold(s *foldState, res *Result) {
	surv := s.fold.Points()
	sort.Slice(surv, func(i, j int) bool { return lessPoint(&surv[i], &surv[j]) })
	fr := pareto.Frontier(surv, pointDollars, pointWatts)
	res.Frontier = pareto.Select(surv, fr)
	csurv := s.cfold.Points()
	sort.Slice(csurv, func(i, j int) bool { return lessPoint(&csurv[i], &csurv[j]) })
	cfr := pareto.Frontier(csurv, pointTCO, pointCO2)
	res.CarbonFrontier = pareto.Select(csurv, cfr)
	if p := s.energy.point(); p != nil {
		res.EnergyOptimal = *p
	}
	if p := s.cost.point(); p != nil {
		res.CostOptimal = *p
	}
	if p := s.tcoOpt.point(); p != nil {
		res.TCOOptimal = *p
	}
	if p := s.carbonOpt.point(); p != nil {
		res.CarbonOptimal = *p
	}
}

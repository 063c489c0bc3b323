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
//     thermal plan, voltage column) identically wherever it runs, on
//     the configuration cellConfig builds;
//   - the chunk partition work[c*size : (c+1)*size] is the same one
//     ExploreContext's workers claim, so a remote worker evaluating
//     chunk c produces exactly the points a local worker would have.
//
// ChunkResult carries a chunk's fold survivors, optimum candidates and
// prune counts over the wire, each distinct survivor once and without
// the Config a plan can rebuild; ResultMerger rebuilds it through
// cellConfig and folds the survivors back together.
// Because pareto.Fold merge is associative and order-independent and
// optAcc merge is commutative, the merged Result is byte-identical to
// a single-process ExploreContext run regardless of which worker
// evaluated which chunk, how chunks were requeued, or arrival order.

// sweepGrid is the resolved, deterministic form of a Sweep: the
// normalized voltage grid, the deduplicated geometry work list, and
// the prune accounting of grid construction itself.
type sweepGrid struct {
	// base is the sweep's fixed server configuration; cellConfig sets
	// the swept coordinates on it.
	base           server.Config
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
	g := &sweepGrid{base: sweep.Base, carbon: carbon.Default()}
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

// cellConfig is the server configuration of one geometry cell: the
// sweep's base with the cell's RCAs per chip, chips per lane and DRAM
// subsystem set. evalCell evaluates it and ResultMerger rebuilds each
// survivor's Config from it, so the worker and the merger cannot drift.
// The error is dram.NewSubsystem's: such a cell yields no point.
func cellConfig(base server.Config, g geom) (server.Config, error) {
	cfg := base
	cfg.RCAsPerChip = g.rcasPerChip
	cfg.ChipsPerLane = g.chipsLane
	cfg.DRAM = dram.Subsystem{}
	if g.dramPerASIC > 0 {
		sub, err := dram.NewSubsystem(base.DRAM.Device.Kind, g.dramPerASIC)
		if err != nil {
			return cfg, err
		}
		cfg.DRAM = sub
	}
	return cfg, nil
}

// evalCell evaluates one deduplicated geometry cell: DRAM subsystem
// construction, the memoized thermal plan, then the per-voltage column
// walk (evalGeometry). Feasible points are appended to scratch; every
// candidate the cell generates is accounted in sum. The returned
// slices are the (possibly grown) scratch buffers.
func (e *Engine) evalCell(g geom, grid *sweepGrid, model tco.Model,
	scratch []Point, column []server.Evaluation, sum *PruneSummary, ctr *exploreCounters) ([]Point, []server.Evaluation) {

	sum.Generated += grid.perGeom
	ctr.configs.Add(grid.perGeom)
	cfg, err := cellConfig(grid.base, g)
	if err != nil {
		sum.add(PruneDRAM, grid.perGeom)
		ctr.dramErr.Add(grid.perGeom)
		return scratch, column
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
	model     tco.Model
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
	return &SweepPlan{grid: grid, model: model, chunkSize: chunkSize}, nil
}

// MaxFleetChunks is how many chunks FleetChunkSize cuts a sweep into
// at most: few enough that each chunk's wire and merge cost is paid
// rarely, enough that a fleet of several workers stays balanced and a
// lost worker costs at most one chunk's share of the sweep.
const MaxFleetChunks = 16

// FleetChunkSize is the chunk size a distributed coordinator uses when
// none is given: ceil(geometries / MaxFleetChunks), at least 1.
func FleetChunkSize(geometries int) int {
	return max(1, (geometries+MaxFleetChunks-1)/MaxFleetChunks)
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

// chunkBounds is chunk c's slice [lo, hi) of the geometry work list.
func (p *SweepPlan) chunkBounds(c int) (lo, hi int) {
	lo = c * p.chunkSize
	return lo, min(lo+p.chunkSize, len(p.grid.work))
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
// Pareto fold survivors, the four chunk-local optimum candidates, and
// the chunk's exact per-geometry prune accounting. It is the payload a
// distributed worker returns, in a compact form: each distinct survivor
// appears once in Points, the frontiers and optima are indices into
// Points, and a survivor's Config — the sweep's constant base with its
// swept coordinates set — stays off the wire (server.Evaluation.Config
// is not serialized) because the merger rebuilds it from the plan.
// Float64 values survive the wire exactly (encoding/json emits the
// shortest round-tripping form).
type ChunkResult struct {
	Chunk     int `json:"chunk"`
	NumChunks int `json:"num_chunks"`
	// Points holds every distinct survivor once.
	Points []ChunkPoint `json:"points,omitempty"`
	// Frontier indexes the chunk-local (dollars, watts) fold's survivor
	// set in staircase order — not the global frontier; merging every
	// chunk's survivors reproduces it.
	Frontier []int `json:"frontier,omitempty"`
	// CarbonFrontier indexes the chunk-local (TCO per op/s, kg CO2e per
	// op/s) fold's survivor set, merged the same way Frontier is.
	CarbonFrontier []int `json:"carbon_frontier,omitempty"`
	// EnergyOptimal, CostOptimal, TCOOptimal and CarbonOptimal index the
	// chunk's argmin candidates under the engine's deterministic
	// tie-break; nil when the chunk has no feasible point.
	EnergyOptimal *int `json:"energy_optimal,omitempty"`
	CostOptimal   *int `json:"cost_optimal,omitempty"`
	TCOOptimal    *int `json:"tco_optimal,omitempty"`
	CarbonOptimal *int `json:"carbon_optimal,omitempty"`
	// Pruned accounts the chunk's own candidates only (thermal, DRAM
	// and eval prunes plus feasible counts); grid-build prunes live in
	// SweepPlan.GridSummary.
	Pruned PruneSummary `json:"pruned"`
}

// ChunkPoint is one survivor on the chunk wire: its Point without the
// Config, plus the coordinates that rebuild the Config from the plan.
type ChunkPoint struct {
	// Geom indexes the plan's geometry work list and Volt its voltage
	// grid; Stacked selects the voltage-stacked variant.
	Geom    int  `json:"geom"`
	Volt    int  `json:"volt"`
	Stacked bool `json:"stacked,omitempty"`
	Point
}

// chunkWriter assigns each distinct survivor of one chunk its slot in
// ChunkResult.Points, keyed by its sweep coordinates.
type chunkWriter struct {
	grid   *sweepGrid
	geoms  map[geom]int
	slots  map[pointCoord]int
	points []ChunkPoint
}

// pointCoord identifies one configuration of a sweep.
type pointCoord struct {
	geom, volt int
	stacked    bool
}

func newChunkWriter(grid *sweepGrid, lo, hi int) *chunkWriter {
	w := &chunkWriter{grid: grid, geoms: make(map[geom]int, hi-lo), slots: make(map[pointCoord]int)}
	for i := lo; i < hi; i++ {
		w.geoms[grid.work[i]] = i
	}
	return w
}

// slot returns p's index in the chunk's point list, adding it on first
// sight. p was evaluated from one of the chunk's geometries at a grid
// voltage, so both lookups hit.
func (w *chunkWriter) slot(p *Point) int {
	cfg := &p.Config
	key := pointCoord{
		geom:    w.geoms[geom{rcasPerChip: cfg.RCAsPerChip, chipsLane: cfg.ChipsPerLane, dramPerASIC: cfg.DRAM.PerASIC}],
		volt:    sort.SearchFloat64s(w.grid.voltages, cfg.Voltage),
		stacked: cfg.Stacked,
	}
	if i, ok := w.slots[key]; ok {
		return i
	}
	i := len(w.points)
	w.slots[key] = i
	cp := ChunkPoint{Geom: key.geom, Volt: key.volt, Stacked: key.stacked, Point: *p}
	cp.Config = server.Config{}
	w.points = append(w.points, cp)
	return i
}

// indices slots every point of pts.
func (w *chunkWriter) indices(pts []Point) []int {
	out := make([]int, len(pts))
	for i := range pts {
		out[i] = w.slot(&pts[i])
	}
	return out
}

// optimum slots an accumulator's optimum; nil when it saw no point.
func (w *chunkWriter) optimum(a *optAcc) *int {
	if !a.ok {
		return nil
	}
	i := w.slot(&a.p)
	return &i
}

// EvaluateChunk evaluates one chunk of the sweep's deterministic
// partition on this engine — the distributed worker's unit of work. It
// is PlanSweep followed by EvaluatePlanChunk.
func (e *Engine) EvaluateChunk(ctx context.Context, sweep Sweep, model tco.Model,
	chunkSize, chunk int) (ChunkResult, error) {

	plan, err := PlanSweep(sweep, model, chunkSize)
	if err != nil {
		return ChunkResult{}, err
	}
	return e.EvaluatePlanChunk(ctx, plan, chunk)
}

// EvaluatePlanChunk evaluates chunk chunk of the plan on this engine.
// The partition is the same one ExploreContext schedules internally,
// so evaluating every chunk exactly once (on any mix of processes and
// engines) and merging with ResultMerger reproduces ExploreContext's
// Result byte for byte. The engine's thermal-plan cache carries over
// between chunks, so a worker handling many chunks of one sweep warms
// up just like a local worker goroutine would.
func (e *Engine) EvaluatePlanChunk(ctx context.Context, plan *SweepPlan, chunk int) (ChunkResult, error) {
	if chunk < 0 || chunk >= plan.NumChunks() {
		return ChunkResult{}, fmt.Errorf(
			"core: chunk %d out of range (sweep has %d chunks of %d geometries)",
			chunk, plan.NumChunks(), plan.chunkSize)
	}
	ctr := newExploreCounters(e.rec)
	lo, hi := plan.chunkBounds(chunk)
	var (
		sum     PruneSummary
		scratch []Point
		column  []server.Evaluation
	)
	folded := newFoldState()
	for _, g := range plan.grid.work[lo:hi] {
		if err := ctx.Err(); err != nil {
			return ChunkResult{}, fmt.Errorf("core: chunk %d aborted: %w", chunk, err)
		}
		scratch = scratch[:0]
		scratch, column = e.evalCell(g, plan.grid, plan.model, scratch, column, &sum, &ctr)
		for i := range scratch {
			folded.add(&scratch[i])
		}
	}
	w := newChunkWriter(plan.grid, lo, hi)
	cr := ChunkResult{Chunk: chunk, NumChunks: plan.NumChunks(),
		Frontier:       w.indices(folded.fold.Points()),
		CarbonFrontier: w.indices(folded.cfold.Points()),
		EnergyOptimal:  w.optimum(&folded.energy),
		CostOptimal:    w.optimum(&folded.cost),
		TCOOptimal:     w.optimum(&folded.tcoOpt),
		CarbonOptimal:  w.optimum(&folded.carbonOpt),
		Pruned:         sum}
	// Set after the literal: the index calls above fill w.points.
	cr.Points = w.points
	return cr, nil
}

// ResultMerger folds ChunkResults back into one Result. Merging is
// order-independent and tolerant of which worker produced each chunk;
// the caller guarantees each chunk index is merged exactly once (the
// pool's first-result-wins dedup provides this under requeue). Chunk
// results are untrusted input: every index one carries is checked
// against the plan, and a malformed chunk sets a sticky error that Err
// and Finish report instead of being merged.
type ResultMerger struct {
	plan    *SweepPlan
	folded  *foldState
	summary PruneSummary
	merged  int
	err     error
}

// NewResultMerger seeds a merger with the plan's grid-build prune
// accounting (counted exactly once per sweep, never per chunk).
func NewResultMerger(plan *SweepPlan) *ResultMerger {
	return &ResultMerger{plan: plan, folded: newFoldState(), summary: plan.GridSummary()}
}

// Add folds one chunk's contribution in, first rebuilding the Config
// of each of cr's points in place. After a malformed chunk, Add does
// nothing.
func (m *ResultMerger) Add(cr ChunkResult) {
	if m.err != nil {
		return
	}
	if err := m.restore(&cr); err != nil {
		m.err = fmt.Errorf("core: malformed result for chunk %d: %w", cr.Chunk, err)
		return
	}
	s := m.folded
	pt := func(i int) *Point { return &cr.Points[i].Point }
	for _, i := range cr.Frontier {
		p := pt(i)
		s.fold.AddKeys(p.DollarsPerOp, p.WattsPerOp, p)
	}
	for _, i := range cr.CarbonFrontier {
		p := pt(i)
		s.cfold.AddKeys(p.TCO.Total(), p.Carbon.Total(), p)
	}
	if i := cr.EnergyOptimal; i != nil {
		p := pt(*i)
		s.energy.add(p.WattsPerOp, p)
	}
	if i := cr.CostOptimal; i != nil {
		p := pt(*i)
		s.cost.add(p.DollarsPerOp, p)
	}
	if i := cr.TCOOptimal; i != nil {
		p := pt(*i)
		s.tcoOpt.add(p.TCO.Total(), p)
	}
	if i := cr.CarbonOptimal; i != nil {
		p := pt(*i)
		s.carbonOpt.add(p.Carbon.Total(), p)
	}
	m.summary.merge(cr.Pruned)
	m.merged++
}

// restore checks cr's chunk identity and every index it carries against
// the plan, and sets each point's Config exactly as the worker that
// evaluated it did: cellConfig for the geometry, then the stacking
// option and the grid voltage.
func (m *ResultMerger) restore(cr *ChunkResult) error {
	plan, grid := m.plan, m.plan.grid
	if cr.NumChunks != plan.NumChunks() {
		return fmt.Errorf("num_chunks %d, plan has %d", cr.NumChunks, plan.NumChunks())
	}
	if cr.Chunk < 0 || cr.Chunk >= plan.NumChunks() {
		return fmt.Errorf("chunk index out of range [0, %d)", plan.NumChunks())
	}
	lo, hi := plan.chunkBounds(cr.Chunk)
	for i := range cr.Points {
		cp := &cr.Points[i]
		if cp.Geom < lo || cp.Geom >= hi {
			return fmt.Errorf("point %d: geometry %d outside the chunk's [%d, %d)", i, cp.Geom, lo, hi)
		}
		if cp.Volt < 0 || cp.Volt >= len(grid.voltages) {
			return fmt.Errorf("point %d: voltage index %d outside the grid's [0, %d)", i, cp.Volt, len(grid.voltages))
		}
		if cp.Stacked && len(grid.stackedOptions) == 1 {
			return fmt.Errorf("point %d: stacked, but the sweep has no stacked variants", i)
		}
		cfg, err := cellConfig(grid.base, grid.work[cp.Geom])
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		cfg.Stacked = cp.Stacked
		cfg.Voltage = grid.voltages[cp.Volt]
		cp.Config = cfg
	}
	n := len(cr.Points)
	for _, idx := range [][]int{cr.Frontier, cr.CarbonFrontier} {
		listed := make([]bool, n)
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("survivor index %d outside [0, %d)", i, n)
			}
			if listed[i] {
				return fmt.Errorf("survivor %d listed twice on one frontier", i)
			}
			listed[i] = true
		}
	}
	for _, i := range []*int{cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal} {
		if i != nil && (*i < 0 || *i >= n) {
			return fmt.Errorf("optimum index %d outside [0, %d)", *i, n)
		}
	}
	return nil
}

// Merged is how many chunks have been folded in.
func (m *ResultMerger) Merged() int { return m.merged }

// Err is the first malformed chunk's error, or nil.
func (m *ResultMerger) Err() error { return m.err }

// Finish assembles the final Result: the same sort → Frontier → Select
// normalization and optimum extraction ExploreContext's streaming path
// applies, so the output is byte-identical to a single-process run
// once every chunk has been merged. The Pruned summary is populated
// even on the no-feasible-point error, mirroring ExploreContext. A
// malformed chunk's error is returned with an empty Result.
func (m *ResultMerger) Finish() (Result, error) {
	if m.err != nil {
		return Result{}, m.err
	}
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

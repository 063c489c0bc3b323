package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"asiccloud/internal/tco"
)

// exploreDiscard runs the single-process streaming sweep that the
// distributed path must reproduce byte for byte.
func exploreDiscard(t testing.TB, sweep Sweep) Result {
	t.Helper()
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	res, err := eng.Explore(sweep, tco.Default())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// evaluateAllChunks runs every chunk of the plan, each on its own
// engine (as distributed workers would: separate processes, separate
// thermal-plan caches), optionally bouncing each ChunkResult through
// its JSON wire form.
func evaluateAllChunks(t testing.TB, sweep Sweep, chunkSize int, viaJSON bool) []ChunkResult {
	t.Helper()
	plan, err := PlanSweep(sweep, tco.Default(), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ChunkResult, 0, plan.NumChunks())
	for c := 0; c < plan.NumChunks(); c++ {
		eng := NewEngine(nil)
		cr, err := eng.EvaluateChunk(context.Background(), sweep, tco.Default(), plan.ChunkSize(), c)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if viaJSON {
			b, err := json.Marshal(cr)
			if err != nil {
				t.Fatalf("chunk %d marshal: %v", c, err)
			}
			cr = ChunkResult{}
			if err := json.Unmarshal(b, &cr); err != nil {
				t.Fatalf("chunk %d unmarshal: %v", c, err)
			}
		}
		out = append(out, cr)
	}
	return out
}

func mergeChunks(t testing.TB, sweep Sweep, chunkSize int, chunks []ChunkResult) Result {
	t.Helper()
	plan, err := PlanSweep(sweep, tco.Default(), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	m := NewResultMerger(plan)
	for _, cr := range chunks {
		m.Add(cr)
	}
	if m.Merged() != plan.NumChunks() {
		t.Fatalf("merged %d chunks, want %d", m.Merged(), plan.NumChunks())
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireResultsIdentical(t testing.TB, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Frontier, got.Frontier) {
		t.Errorf("frontier differs: %d vs %d points", len(want.Frontier), len(got.Frontier))
	}
	if !reflect.DeepEqual(want.EnergyOptimal, got.EnergyOptimal) {
		t.Error("energy optimal differs")
	}
	if !reflect.DeepEqual(want.CostOptimal, got.CostOptimal) {
		t.Error("cost optimal differs")
	}
	if !reflect.DeepEqual(want.TCOOptimal, got.TCOOptimal) {
		t.Error("TCO optimal differs")
	}
	if !reflect.DeepEqual(want.CarbonFrontier, got.CarbonFrontier) {
		t.Errorf("carbon frontier differs: %d vs %d points", len(want.CarbonFrontier), len(got.CarbonFrontier))
	}
	if !reflect.DeepEqual(want.CarbonOptimal, got.CarbonOptimal) {
		t.Error("carbon optimal differs")
	}
	if !reflect.DeepEqual(want.Pruned, got.Pruned) {
		t.Errorf("prune accounting differs:\nwant %s\ngot  %s", want.Pruned, got.Pruned)
	}
	// Byte-level check on the full wire-relevant content.
	wb, err := json.Marshal(struct {
		F, CF      []Point
		E, C, T, G Point
		P          PruneSummary
	}{want.Frontier, want.CarbonFrontier, want.EnergyOptimal, want.CostOptimal, want.TCOOptimal, want.CarbonOptimal, want.Pruned})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(struct {
		F, CF      []Point
		E, C, T, G Point
		P          PruneSummary
	}{got.Frontier, got.CarbonFrontier, got.EnergyOptimal, got.CostOptimal, got.TCOOptimal, got.CarbonOptimal, got.Pruned})
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Error("serialized results are not byte-identical")
	}
}

// TestChunkedMergeMatchesExplore is the distribution soundness proof in
// miniature: evaluating every chunk on isolated engines and merging
// reproduces ExploreContext exactly, for several chunk sizes (including
// one that leaves a short final chunk, the coordinator's fleet-sized
// default and one chunk holding the whole sweep).
func TestChunkedMergeMatchesExplore(t *testing.T) {
	sweep := smallSweep()
	want := exploreDiscard(t, sweep)
	plan, err := PlanSweep(sweep, tco.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	geoms := plan.Geometries()
	for _, size := range []int{1, 3, DefaultChunkSize, FleetChunkSize(geoms), geoms, 100} {
		chunks := evaluateAllChunks(t, sweep, size, false)
		got := mergeChunks(t, sweep, size, chunks)
		requireResultsIdentical(t, want, got)
		checkAccounting(t, got.Pruned)
	}
}

// TestChunkedMergeSurvivesWire bounces every ChunkResult through JSON —
// the distributed pool's payload encoding — before merging. Go floats
// round-trip exactly through encoding/json, and the merger rebuilds
// each survivor's Config (which stays off the wire) from the plan, so
// this must still be byte-identical. Each distinct survivor crosses the
// wire once, however many frontiers and optima it is on.
func TestChunkedMergeSurvivesWire(t *testing.T) {
	sweep := smallSweep()
	sweep.Stacked = true // exercise both stacking options over the wire
	want := exploreDiscard(t, sweep)
	chunks := evaluateAllChunks(t, sweep, DefaultChunkSize, true)
	points, refs := 0, 0
	for _, cr := range chunks {
		seen := map[pointCoord]bool{}
		used := make([]bool, len(cr.Points))
		for i, p := range cr.Points {
			c := pointCoord{geom: p.Geom, volt: p.Volt, stacked: p.Stacked}
			if seen[c] {
				t.Errorf("chunk %d: point %d duplicates an earlier point %+v", cr.Chunk, i, c)
			}
			seen[c] = true
		}
		idx := append(append([]int(nil), cr.Frontier...), cr.CarbonFrontier...)
		for _, o := range []*int{cr.EnergyOptimal, cr.CostOptimal, cr.TCOOptimal, cr.CarbonOptimal} {
			if o != nil {
				idx = append(idx, *o)
			}
		}
		for _, i := range idx {
			used[i] = true
		}
		for i, u := range used {
			if !u {
				t.Errorf("chunk %d: point %d is on no frontier and no optimum", cr.Chunk, i)
			}
		}
		points += len(cr.Points)
		refs += len(idx)
	}
	if refs <= points {
		t.Errorf("%d references to %d points: no survivor was shared, so dedup went untested", refs, points)
	}
	got := mergeChunks(t, sweep, DefaultChunkSize, chunks)
	requireResultsIdentical(t, want, got)
}

// TestChunkedMergeOrderIndependent merges the same chunk results in
// reverse arrival order — the distributed pool gives no ordering
// guarantee — and must get the same answer.
func TestChunkedMergeOrderIndependent(t *testing.T) {
	sweep := smallSweep()
	want := exploreDiscard(t, sweep)
	chunks := evaluateAllChunks(t, sweep, 2, false)
	rev := make([]ChunkResult, 0, len(chunks))
	for i := len(chunks) - 1; i >= 0; i-- {
		rev = append(rev, chunks[i])
	}
	got := mergeChunks(t, sweep, 2, rev)
	requireResultsIdentical(t, want, got)
}

func TestPlanSweepPartition(t *testing.T) {
	plan, err := PlanSweep(smallSweep(), tco.Default(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Geometries() == 0 {
		t.Fatal("plan has no geometries")
	}
	wantChunks := (plan.Geometries() + 4) / 5
	if plan.NumChunks() != wantChunks {
		t.Errorf("NumChunks = %d, want %d", plan.NumChunks(), wantChunks)
	}
	if plan.ChunkSize() != 5 {
		t.Errorf("ChunkSize = %d, want 5", plan.ChunkSize())
	}
	// Default chunk size kicks in for size <= 0.
	plan, err = PlanSweep(smallSweep(), tco.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkSize() != DefaultChunkSize {
		t.Errorf("ChunkSize = %d, want DefaultChunkSize", plan.ChunkSize())
	}
	// The grid summary must be independent of (and unshared between)
	// mergers: two mergers from one plan cannot alias one Reasons map.
	m1, m2 := NewResultMerger(plan), NewResultMerger(plan)
	m1.Add(ChunkResult{NumChunks: plan.NumChunks(), Pruned: PruneSummary{Reasons: map[string]int64{PruneThermal: 7}}})
	if m1.Err() != nil || m1.Merged() != 1 {
		t.Fatalf("empty chunk 0 not merged: %v", m1.Err())
	}
	if n := m2.summary.Reasons[PruneThermal]; n != 0 {
		t.Errorf("mergers share prune state: %d", n)
	}
}

func TestEvaluateChunkErrors(t *testing.T) {
	eng := NewEngine(nil)
	if _, err := eng.EvaluateChunk(context.Background(), smallSweep(), tco.Default(), 4, -1); err == nil {
		t.Error("negative chunk index should fail")
	}
	if _, err := eng.EvaluateChunk(context.Background(), smallSweep(), tco.Default(), 4, 10000); err == nil {
		t.Error("out-of-range chunk index should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EvaluateChunk(ctx, smallSweep(), tco.Default(), 4, 0); err == nil {
		t.Error("pre-canceled context should abort the chunk")
	}
}

// encodedChunks is every chunk of sweep in its JSON wire form.
func encodedChunks(t testing.TB, sweep Sweep, chunkSize int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, cr := range evaluateAllChunks(t, sweep, chunkSize, false) {
		b, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestResultMergerRejectsMalformedChunks: chunk results are untrusted.
// Each malformed one sets the merger's sticky error, which Finish
// returns, and chunks added after it are ignored.
func TestResultMergerRejectsMalformedChunks(t *testing.T) {
	sweep := smallSweep()
	const size = 3
	plan, err := PlanSweep(sweep, tco.Default(), size)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodedChunks(t, sweep, size)
	// first decodes a fresh copy of the first chunk with survivors.
	first := func() ChunkResult {
		for _, b := range enc {
			var cr ChunkResult
			if err := json.Unmarshal(b, &cr); err != nil {
				t.Fatal(err)
			}
			if len(cr.Points) > 0 {
				return cr
			}
		}
		t.Fatal("no chunk has survivors")
		return ChunkResult{}
	}
	bad := -1
	cases := []struct {
		name    string
		breakIt func(*ChunkResult)
		want    string
	}{
		{"num_chunks", func(cr *ChunkResult) { cr.NumChunks++ }, "num_chunks"},
		{"chunk", func(cr *ChunkResult) { cr.Chunk = plan.NumChunks() }, "chunk index out of range"},
		{"geometry outside chunk", func(cr *ChunkResult) { cr.Points[0].Geom = plan.Geometries() }, "outside the chunk"},
		{"voltage", func(cr *ChunkResult) { cr.Points[0].Volt = -1 }, "voltage index"},
		{"stacked", func(cr *ChunkResult) { cr.Points[0].Stacked = true }, "no stacked variants"},
		{"frontier index", func(cr *ChunkResult) { cr.Frontier[0] = len(cr.Points) }, "survivor index"},
		{"carbon frontier index", func(cr *ChunkResult) { cr.CarbonFrontier[0] = -1 }, "survivor index"},
		{"frontier duplicate", func(cr *ChunkResult) { cr.Frontier = append(cr.Frontier, cr.Frontier[0]) }, "listed twice"},
		{"optimum index", func(cr *ChunkResult) { cr.TCOOptimal = &bad }, "optimum index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr := first()
			tc.breakIt(&cr)
			m := NewResultMerger(plan)
			m.Add(cr)
			if m.Err() == nil || !strings.Contains(m.Err().Error(), tc.want) {
				t.Fatalf("Err() = %v, want it to mention %q", m.Err(), tc.want)
			}
			m.Add(first())
			if m.Merged() != 0 {
				t.Errorf("merged %d chunks after a malformed one", m.Merged())
			}
			if _, err := m.Finish(); err != m.Err() {
				t.Errorf("Finish error %v, want the sticky %v", err, m.Err())
			}
		})
	}
}

// TestChunkResultRejectsFullPoints: a result in the old wire form, with
// whole Points in the frontier and optima, fails to decode instead of
// merging as an empty chunk.
func TestChunkResultRejectsFullPoints(t *testing.T) {
	for _, old := range []string{
		`{"chunk":0,"num_chunks":1,"frontier":[{"DollarsPerOp":1,"WattsPerOp":2}],"pruned":{}}`,
		`{"chunk":0,"num_chunks":1,"tco_optimal":{"DollarsPerOp":1},"pruned":{}}`,
	} {
		var cr ChunkResult
		if err := json.Unmarshal([]byte(old), &cr); err == nil {
			t.Errorf("decoded old-format result %s as %+v", old, cr)
		}
	}
}

// FuzzChunkResultMerge feeds arbitrary bytes through the coordinator's
// decode → ResultMerger.Add → Finish path, which must never panic. The
// seeds are real chunk encodings; when the input is one of them, the
// whole sweep merged with it must still be byte-identical to the
// single-process run.
func FuzzChunkResultMerge(f *testing.F) {
	sweep := smallSweep()
	sweep.Stacked = true
	const size = 5
	plan, err := PlanSweep(sweep, tco.Default(), size)
	if err != nil {
		f.Fatal(err)
	}
	want := exploreDiscard(f, sweep)
	enc := encodedChunks(f, sweep, size)
	for _, b := range enc {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cr ChunkResult
		if err := json.Unmarshal(data, &cr); err != nil {
			return
		}
		m := NewResultMerger(plan)
		m.Add(cr)
		if _, err := m.Finish(); m.Err() != nil && err != m.Err() {
			t.Fatalf("Finish returned %v, not the sticky error %v", err, m.Err())
		}
		if !slices.ContainsFunc(enc, func(b []byte) bool { return bytes.Equal(b, data) }) {
			return
		}
		chunks := make([]ChunkResult, len(enc))
		for i, b := range enc {
			if err := json.Unmarshal(b, &chunks[i]); err != nil {
				t.Fatal(err)
			}
		}
		requireResultsIdentical(t, want, mergeChunks(t, sweep, size, chunks))
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"asiccloud/internal/core"
	"asiccloud/internal/service"
)

func serviceKeys(seed int64, n int) []string {
	m := newServiceMix(seed)
	keys := make([]string, n)
	for i := range keys {
		r, _ := m.next()
		keys[i] = r.Key
	}
	return keys
}

func distKeys(seed int64, cycles int) []string {
	rng := newPRNG(seed)
	var keys []string
	for c := 0; c < cycles; c++ {
		for _, r := range distCycle(rng) {
			keys = append(keys, r.Key)
		}
	}
	return keys
}

func TestSeedDeterminesRequests(t *testing.T) {
	if a, b := serviceKeys(7, 500), serviceKeys(7, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different service request sequences")
	}
	if a, b := serviceKeys(7, 500), serviceKeys(8, 500); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same service request sequence")
	}
	if a, b := distKeys(7, 10), distKeys(7, 10); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different distributed request lists")
	}
	if a, b := distKeys(7, 10), distKeys(8, 10); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same distributed request list")
	}
}

func TestServiceMixProportions(t *testing.T) {
	m := newServiceMix(3)
	count := map[string]int{}
	econSeen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		r, _ := m.next()
		count[r.Class]++
		if r.Class == "econ" {
			if econSeen[r.Key] {
				t.Fatalf("economics variant %s repeated within one catalog cycle", r.Key)
			}
			econSeen[r.Key] = true
		}
	}
	if count["hot"] != 400 || count["econ"] != 400 || count["geom"] != 200 {
		t.Fatalf("mix %v, want exactly 400 hot, 400 econ, 200 geom per 1000", count)
	}
}

// TestGeneratedRequestsFeasible checks every request the first seeds
// generate resolves to a plannable sweep with a golden digest; the
// golden generator writes digests only for sweeps with a feasible
// design, so a golden entry is the feasibility proof.
func TestGeneratedRequestsFeasible(t *testing.T) {
	gs, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	var reqs []benchRequest
	for seed := int64(1); seed <= 3; seed++ {
		m := newServiceMix(seed)
		for i := 0; i < 400; i++ {
			r, _ := m.next()
			reqs = append(reqs, r)
		}
		rng := newPRNG(seed)
		for c := 0; c < 10; c++ {
			reqs = append(reqs, distCycle(rng)...)
		}
	}
	for _, r := range reqs {
		if _, ok := gs[r.Key]; !ok {
			t.Fatalf("%s has no golden digest", r.Key)
		}
		can, err := service.Canonicalize(&r.Req)
		if err != nil {
			t.Fatalf("%s: %v", r.Key, err)
		}
		sweep, model, err := can.Plan()
		if err != nil {
			t.Fatalf("%s: %v", r.Key, err)
		}
		if _, err := core.PlanSweep(sweep, model, 0); err != nil {
			t.Fatalf("%s: %v", r.Key, err)
		}
	}
	for _, app := range designApps {
		if _, ok := gs["design/"+app.name]; !ok {
			t.Fatalf("design/%s has no golden digest", app.name)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of no samples reported a value")
	}
	if v, ok := quantile([]float64{0.08}, 0.5); !ok || v != 0.08 {
		t.Fatalf("p50 of one sample = %v, %v; want the sample", v, ok)
	}
	if v, ok := quantile([]float64{0.08}, 0.99); !ok || v != 0.08 {
		t.Fatalf("p99 of one sample = %v, %v; want the sample, never an interpolation", v, ok)
	}
	if v, _ := quantile([]float64{3, 1}, 0.5); v != 1 {
		t.Fatalf("nearest-rank p50 of {1,3} = %v, want 1", v)
	}
	if v, _ := quantile([]float64{3, 1}, 0.9); v != 3 {
		t.Fatalf("nearest-rank p90 of {1,3} = %v, want 3", v)
	}
	eleven := []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if v, _ := quantile(eleven, 0.5); v != 6 {
		t.Fatalf("p50 of 1..11 = %v, want 6", v)
	}
	if v, _ := quantile(eleven, 0.9); v != 10 {
		t.Fatalf("p90 of 1..11 = %v, want 10", v)
	}
	if _, ok := tailQuantile(eleven, 0.9); ok {
		t.Fatal("p90 of 11 samples reported with one sample beyond it")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if v, ok := tailQuantile(hundred, 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, ok)
	}
}

func TestGoldenCheckFailsOnFlippedByte(t *testing.T) {
	gs, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	r := catalogEntry("hot", 0)
	body, err := service.RunOnce(context.Background(), &r.Req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.check(r.Key, resultDigest(body)); err != nil {
		t.Fatalf("unmodified answer: %v", err)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 1
	if err := gs.check(r.Key, resultDigest(flipped)); err == nil {
		t.Fatal("golden check passed an answer with a flipped byte")
	}
	if err := gs.check("hot/no-such-entry", resultDigest(body)); err == nil {
		t.Fatal("golden check passed a key with no golden")
	}
}

func TestLayerSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "sweep", Start: 0, End: ms(10), Parent: -1},
		// Two overlapping children cover [1,6]; a third runs past the
		// parent's end and counts only up to it: 5 + 2 ms covered.
		{Name: "chunk", Start: ms(1), End: ms(4), Parent: 0},
		{Name: "chunk", Start: ms(3), End: ms(6), Parent: 0},
		{Name: "chunk", Start: ms(8), End: ms(12), Parent: 0},
		// An open span is ignored.
		{Name: "chunk", Start: ms(9), End: -1, Parent: 0},
		{Name: "fold", Start: ms(2), End: ms(3), Parent: 1},
	}
	total, self := layerTimes(spans)
	if total["sweep"] != ms(10) || self["sweep"] != ms(3) {
		t.Fatalf("sweep total %v self %v, want 10ms and 3ms", total["sweep"], self["sweep"])
	}
	if total["chunk"] != ms(10) || self["chunk"] != ms(9) {
		t.Fatalf("chunk total %v self %v, want 10ms and 9ms", total["chunk"], self["chunk"])
	}
	if self["fold"] != ms(1) {
		t.Fatalf("fold self %v, want 1ms", self["fold"])
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.begin("x", -1); id != -1 || tr.end(id) != 0 || len(tr.snapshot()) != 0 {
		t.Fatal("a disabled tracer recorded a span")
	}
}

func TestQuietSetsAsideStolenOperations(t *testing.T) {
	op := func(ms int, steal float64) opTime {
		return opTime{d: time.Duration(ms) * time.Millisecond, steal: steal}
	}
	kept, aside := quiet([]opTime{op(10, 0), op(30, 0.2), op(11, 0.01), op(12, 0)})
	if len(kept) != 3 || aside != 1 {
		t.Fatalf("kept %v, set aside %d; want the 3 undisturbed operations", kept, aside)
	}
	// When most operations were disturbed there is no quiet majority to
	// trust, and every sample counts.
	kept, aside = quiet([]opTime{op(10, 0), op(30, 0.2), op(31, 0.1)})
	if len(kept) != 3 || aside != 0 {
		t.Fatalf("kept %v, set aside %d; want all 3", kept, aside)
	}
}

func TestEmitReportsExactlyTheManifestMetrics(t *testing.T) {
	m := manifest{
		EndToEnd: []manifestMetric{{"round_s", "s"}},
		PerLayer: []manifestMetric{{"design.core.points", "count"}},
	}
	out := newOutcome()
	out.attempted = 1
	out.set("round_s", "s", 2, 1)
	out.set("xcode_s", "s", 1, 1)
	var buf bytes.Buffer
	if err := emit(&buf, config{}, m, out, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	var det detailLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 1 || res.Metrics["round_s"].Value != 2 {
		t.Errorf("result metrics %v, want round_s only", res.Metrics)
	}
	if _, ok := det.Other["xcode_s"]; !ok {
		t.Errorf("detail other_metrics %v lacks xcode_s", det.Other)
	}
	// A traced run must report the per-layer list; this outcome cannot.
	buf.Reset()
	if err := emit(&buf, config{trace: true}, m, out, time.Second, 0); err == nil || buf.Len() > 0 {
		t.Errorf("missing per-layer metric: err %v, printed %q", err, buf.String())
	}
	out.set("design.core.points", "B", 3, 0)
	if err := emit(&buf, config{trace: true}, m, out, time.Second, 0); err == nil {
		t.Error("a metric in the wrong unit was reported")
	}
}

func TestAbsorbPrefixesEachPass(t *testing.T) {
	merged := newOutcome()
	merged.selfTime, merged.totalTime = map[string]float64{}, map[string]float64{}
	for _, w := range []string{"design", "service"} {
		p := newOutcome()
		p.attempted, p.failed = 2, 1
		p.set("core.chunk_eval_s", "s", 1, 3)
		p.fail("boom")
		p.spans = []span{{Name: "core.EvaluateChunk", Start: 0, End: time.Second, Parent: -1}}
		merged.absorb(w, p)
	}
	if merged.attempted != 4 || merged.failed != 4 {
		t.Errorf("attempted %d failed %d, want 4 and 4", merged.attempted, merged.failed)
	}
	for _, name := range []string{"design.core.chunk_eval_s", "service.core.chunk_eval_s"} {
		if _, ok := merged.metrics[name]; !ok || merged.samples[name] != 3 {
			t.Errorf("%s missing or without its sample count: %v %v", name, merged.metrics, merged.samples)
		}
	}
	if merged.selfTime["service:core.EvaluateChunk"] != 1 || merged.failures[0] != "design: boom" {
		t.Errorf("self time %v, failures %v", merged.selfTime, merged.failures)
	}
}

func TestManifestLoads(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[mm.Name] || mm.Unit == "" {
			t.Errorf("metric %q repeated or without a unit", mm.Name)
		}
		seen[mm.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"asiccloud/internal/cloud"
	"asiccloud/internal/core"
	"asiccloud/internal/service"
)

// distWorkers is the fleet size: two TCP workers in this process.
const distWorkers = 2

// distLease is the coordinator's chunk lease, asiccloudd's default.
const distLease = 10 * time.Second

// chunkRecord is one handler call seen by the traced wrapper.
type chunkRecord struct {
	worker        int
	chunk, size   int
	handler       time.Duration
	payload, body int
	output        []byte
}

// distSweep is one distributed sweep's record.
type distSweep struct {
	body   []byte
	wall   time.Duration
	chunks []chunkRecord
}

// runDistSweep runs req through service.RunCoordinator with the default
// chunk size and a lease, served by distWorkers cloud.RunWorker
// goroutines that each build a fresh engine, as an `asiccloudd -worker`
// process does. With tr on, each worker's handler is wrapped to time
// every chunk and keep its output for the merge probe.
func runDistSweep(ctx context.Context, req service.Request, tr *tracer, parent int) (distSweep, error) {
	var out distSweep
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	addr := ln.Addr().String()
	// A failed coordinator cancels its workers rather than strand them.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, distWorkers)
	)
	t0 := time.Now()
	for w := 0; w < distWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := service.NewChunkHandler(core.NewEngine(nil), nil, nil)
			if tr.on {
				inner := h
				h = func(j cloud.Job) ([]byte, error) {
					sp := tr.begin("cloud.handler", parent)
					t := time.Now()
					res, err := inner(j)
					d := time.Since(t)
					tr.end(sp)
					var p struct {
						ChunkSize int `json:"chunk_size"`
						Chunk     int `json:"chunk"`
					}
					if jerr := json.Unmarshal(j.Payload, &p); jerr != nil && err == nil {
						err = jerr
					}
					mu.Lock()
					out.chunks = append(out.chunks, chunkRecord{worker: w, chunk: p.Chunk, size: p.ChunkSize,
						handler: d, payload: len(j.Payload), body: len(res), output: res})
					mu.Unlock()
					return res, err
				}
			}
			_, errs[w] = cloud.RunWorker(ctx, addr, fmt.Sprintf("bench-%d", w), h)
		}(w)
	}
	out.body, err = service.RunCoordinator(ctx, &req, ln, nil, service.CoordinatorOptions{LeaseDuration: distLease})
	if err != nil {
		cancel()
	}
	wg.Wait()
	out.wall = time.Since(t0)
	if err != nil {
		return out, err
	}
	for w, e := range errs {
		if e != nil {
			return out, fmt.Errorf("worker %d: %w", w, e)
		}
	}
	return out, nil
}

// echoRoundTrips runs the given payloads through a cloud pool served by
// workers whose handler answers with a reply of the matching size, and
// returns the wall time: the pool round-trip probe, and with one job per
// worker the workload's "workers connected" set-up step. In that case
// each handler holds its job until every worker holds one, so the pool
// cannot drain (and close its listener) before the last worker joins.
func echoRoundTrips(ctx context.Context, workers int, payloads [][]byte, replies []int) (time.Duration, error) {
	jobs := make([]cloud.Job, len(payloads))
	size := map[uint64]int{}
	for i, p := range payloads {
		jobs[i] = cloud.Job{ID: uint64(i + 1), Payload: p}
		size[jobs[i].ID] = replies[i]
	}
	var joined sync.WaitGroup
	if len(jobs) == workers {
		joined.Add(workers)
	}
	handler := func(j cloud.Job) ([]byte, error) {
		if len(jobs) == workers {
			joined.Done()
			joined.Wait()
		}
		return make([]byte, size[j.ID]), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	pool := cloud.NewPool(jobs)
	pool.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	serveDone := make(chan error, 1)
	go func() { serveDone <- pool.Serve(ctx, ln) }()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = cloud.RunWorker(ctx, ln.Addr().String(), fmt.Sprintf("echo-%d", w), handler)
		}(w)
	}
	var jobErr error
	for r := range pool.Results() {
		if r.Err != "" && jobErr == nil {
			jobErr = fmt.Errorf("echo job %d: %s", r.JobID, r.Err)
		}
	}
	d := time.Since(t0)
	ln.Close() // the pool has drained; Serve's return reports real failures
	wg.Wait()
	if err := <-serveDone; err != nil {
		return 0, err
	}
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return d, jobErr
}

// generatedOf reads pruned.generated from a service result body.
func generatedOf(body []byte) (int64, error) {
	var r struct {
		Pruned core.PruneSummary `json:"pruned"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Pruned.Generated, nil
}

// runDistributed is the distributed workload: whole cycles of one
// bitcoin, one litecoin and one xcode request (seeded order and
// variants), each a coordinator plus distWorkers TCP workers.
func runDistributed(cfg config) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	var gs goldens
	err := out.setUp(cfg, func() error {
		var err error
		if gs, err = loadGoldens(cfg.root); err != nil {
			return err
		}
		if _, err := echoRoundTrips(ctx, distWorkers, [][]byte{[]byte("{}"), []byte("{}")}, []int{2, 2}); err != nil {
			return fmt.Errorf("pool set-up: %w", err)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	rng := newPRNG(cfg.seed)
	tr := newTracer(cfg.trace)
	got := map[string][32]byte{}
	var distinct []benchRequest
	perApp := map[string][]opTime{}
	configsOf := map[string]int64{}
	var tracedWall, plainWall time.Duration
	var tracedCycles, plainCycles int
	var records []chunkRecord
	var handlerSum, tracedSweepWall, merge time.Duration
	var replayed time.Duration
	alloc0 := totalAlloc()
	start := time.Now()
	for cycle := 0; cfg.more(start, cycle); cycle++ {
		traced := cfg.trace && cycle%2 == 1
		t := offTracer
		if traced {
			t = tr
		}
		var cycleWall time.Duration
		for _, r := range distCycle(rng) {
			out.attempted++
			// Coordinator and workers are fresh processes per sweep in
			// a real fleet; collecting first keeps one sweep's garbage
			// from being charged to the next.
			runtime.GC()
			sp := t.begin("distributed."+r.Class, -1)
			cpu0 := snapCPU()
			s, err := runDistSweep(ctx, r.Req, t, sp)
			steal := cpu0.stealTo(snapCPU())
			t.end(sp)
			cycleWall += s.wall
			if err != nil {
				out.fail("%s: %v", r.Key, err)
				continue
			}
			if err := gs.check(r.Key, resultDigest(s.body)); err != nil {
				out.fail("%v", err)
				continue
			}
			sum := sha256.Sum256(s.body)
			if prev, ok := got[r.Key]; !ok {
				got[r.Key] = sum
				distinct = append(distinct, r)
			} else if prev != sum {
				out.fail("%s: answer differs from the earlier answer for the same request", r.Key)
				continue
			}
			n, err := generatedOf(s.body)
			if err != nil {
				out.fail("%s: %v", r.Key, err)
				continue
			}
			configsOf[r.Class] = n
			if !traced {
				perApp[r.Class] = append(perApp[r.Class], opTime{d: s.wall, steal: steal})
			} else {
				tracedSweepWall += s.wall
				for _, c := range s.chunks {
					handlerSum += c.handler
				}
				m, rp, err := probeChunks(ctx, tr, r.Req, s.chunks)
				if err != nil {
					return nil, err
				}
				merge += m
				replayed += rp
				for i := range s.chunks {
					s.chunks[i].output = nil
				}
				records = append(records, s.chunks...)
			}
		}
		if traced {
			tracedWall += cycleWall
			tracedCycles++
		} else {
			plainWall += cycleWall
			plainCycles++
		}
	}
	out.runLength = time.Since(start)
	allocMB := float64(totalAlloc()-alloc0) / mib / float64(out.attempted)
	rss := peakRSSMB()
	if err := checkRunOnce(ctx, distinct, got, out); err != nil {
		return nil, err
	}

	// round_s is one cycle with every sweep at its app's median time
	// (set aside for steal as the design workload does), op_p50_ms the
	// median sweep of that cycle, and configs_per_s one cycle's
	// configurations over round_s: figures no single slow sweep can
	// tilt. An app's economics variants share its geometry, so its
	// configuration count is the same on every sweep.
	var cycleConfigs, cycleWall float64
	var meds, counts []float64
	measured := 0
	everyApp := true
	for _, app := range distApps {
		everyApp = everyApp && len(perApp[app]) > 0
		med := out.setQuietMedian(app+"_s", "s", perApp[app], 1)
		meds, counts = append(meds, med), append(counts, 1)
		measured += len(perApp[app])
		cycleConfigs += float64(configsOf[app])
		cycleWall += med
	}
	// A cycle needs every app's median; with one missing (every sweep of
	// it failed) the run fails and reports no cycle figures.
	if everyApp {
		out.set("round_s", "s", cycleWall, measured)
		out.set("configs_per_s", "1/s", cycleConfigs/cycleWall, measured)
		if v, ok := roundMedian(meds, counts); ok {
			out.set("op_p50_ms", "ms", v*msPerSecond, measured)
		}
	}
	out.set("alloc_mb_per_op", "MB", allocMB, out.attempted)
	out.set("peak_rss_mb", "MB", rss, 0)
	if !cfg.trace {
		return out, nil
	}
	if plainCycles > 0 && tracedCycles > 0 {
		u := plainWall.Seconds() / float64(plainCycles)
		out.setDerived("trace_overhead_frac", "frac", (tracedWall.Seconds()/float64(tracedCycles)-u)/u, tracedCycles)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("traced run finished no traced cycle; raise --seconds")
	}
	var payloads [][]byte
	var replies []int
	var pay, res []float64
	for _, c := range records {
		payloads = append(payloads, make([]byte, c.payload))
		replies = append(replies, c.body)
		pay = append(pay, float64(c.payload))
		res = append(res, float64(c.body))
	}
	rtt, err := echoRoundTrips(ctx, 1, payloads, replies)
	if err != nil {
		return nil, fmt.Errorf("rtt probe: %w", err)
	}
	nc := len(records)
	out.set("cloud.handler_ms", "ms", ms(handlerSum)/float64(nc), nc)
	out.setDerived("cloud.codec_ms", "ms", ms(handlerSum-replayed)/float64(nc), nc)
	out.set("cloud.rtt_us", "us", rtt.Seconds()*usPerSecond/float64(nc), nc)
	out.setMedian("cloud.payload_bytes", "B", pay, 1)
	out.setMedian("cloud.result_bytes", "B", res, 1)
	sweeps := tracedCycles * len(distApps)
	out.set("cloud.chunks", "count", float64(nc)/float64(sweeps), sweeps)
	out.setDerived("cloud.worker_busy_frac", "frac", handlerSum.Seconds()/(distWorkers*tracedSweepWall.Seconds()), nc)
	out.set("core.merge_s", "s", merge.Seconds()/float64(sweeps), sweeps)
	if err := probeSweeps(ctx, tr, distinct, false, out); err != nil {
		return nil, err
	}
	out.spans = tr.snapshot()
	return out, nil
}

// probeChunks re-plays one traced sweep's chunks outside the measured
// path: it decodes the workers' chunk results and times
// core.ResultMerger Add plus Finish over them (the coordinator's merge),
// and re-evaluates each worker's chunks in the order that worker ran
// them on a fresh engine, the handler's own engine warmth, so that
// handler time minus this is the handler's codec and hash overhead.
func probeChunks(ctx context.Context, tr *tracer, req service.Request, chunks []chunkRecord) (merge, replay time.Duration, err error) {
	can, err := service.Canonicalize(&req)
	if err != nil {
		return 0, 0, err
	}
	sweep, model, err := can.Plan()
	if err != nil {
		return 0, 0, err
	}
	if len(chunks) == 0 {
		return 0, 0, fmt.Errorf("traced sweep recorded no chunks")
	}
	plan, err := core.PlanSweep(sweep, model, chunks[0].size)
	if err != nil {
		return 0, 0, err
	}
	decoded := make([]core.ChunkResult, len(chunks))
	for i, c := range chunks {
		if err := json.Unmarshal(c.output, &decoded[i]); err != nil {
			return 0, 0, fmt.Errorf("decode chunk %d: %w", c.chunk, err)
		}
	}
	root := tr.begin("probe.merge", -1)
	sp := tr.begin("core.ResultMerger", root)
	m := core.NewResultMerger(plan)
	for _, cr := range decoded {
		m.Add(cr)
	}
	_, err = m.Finish()
	merge = tr.end(sp)
	if err != nil {
		tr.end(root)
		return 0, 0, err
	}
	engines := make([]*core.Engine, distWorkers)
	for _, c := range chunks {
		if engines[c.worker] == nil {
			engines[c.worker] = core.NewEngine(nil)
		}
		sp := tr.begin("core.EvaluateChunk.replay", root)
		_, err := engines[c.worker].EvaluateChunk(ctx, sweep, model, c.size, c.chunk)
		replay += tr.end(sp)
		if err != nil {
			tr.end(root)
			return 0, 0, err
		}
	}
	tr.end(root)
	return merge, replay, nil
}

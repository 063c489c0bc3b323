package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/pareto"
	"asiccloud/internal/service"
	"asiccloud/internal/tco"
)

// serviceClients is the closed loop's client count: sweep callers wait
// for their answer before asking again.
const serviceClients = 2

// probeSample bounds how many distinct requests the layer probes and
// the service.RunOnce byte comparison re-run after the measured window.
const probeSample = 8

// daemon is an in-process asiccloudd serving real HTTP on loopback,
// assembled the way cmd/asiccloudd assembles it.
type daemon struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan error
}

func startDaemon(hc *http.Client) (*daemon, error) {
	rec := obs.NewRecorder()
	obs.RegisterRuntimeMetrics(rec.Registry())
	svc := service.New(service.Config{Logger: obs.NewLogger(os.Stderr, slog.LevelWarn)}, rec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownService(svc)
		return nil, err
	}
	d := &daemon{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	// Healthy means the API answers, not merely that the port is bound.
	for i := 0; ; i++ {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			// Drained so the connection is reused; the status decides.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 100 {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func shutdownService(svc *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "asicbench: service shutdown: %v\n", err)
	}
}

// stop drains the job pool, then the HTTP server, and waits for Serve
// to return.
func (d *daemon) stop() {
	shutdownService(d.svc)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "asicbench: http shutdown: %v\n", err)
	}
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "asicbench: serve: %v\n", err)
	}
}

// svcResult is one request's client-side record.
type svcResult struct {
	req       benchRequest
	seq       int
	traced    bool
	cached    bool
	rejected  bool
	err       error
	latency   time.Duration
	submit    time.Duration
	events    time.Duration
	get       time.Duration
	queueWait time.Duration
	run       time.Duration
	canon     time.Duration
	// size, sum and digest describe the result body, which is not kept:
	// the daemon's own job registry is what should show in peak RSS.
	size   int
	sum    [32]byte
	digest string
}

// digestCache fingerprints result bodies. Hot-set answers repeat, so
// each hot key's first body is kept and a repeat costs one bytes.Equal;
// every other body is hashed once (it is normally a key's only answer).
type digestCache struct {
	mu  sync.Mutex
	hot map[string]hotAnswer
}

type hotAnswer struct {
	body   []byte
	sum    [32]byte
	digest string
}

func (c *digestCache) of(req benchRequest, body []byte) ([32]byte, string) {
	if req.Class == "hot" {
		c.mu.Lock()
		a, ok := c.hot[req.Key]
		c.mu.Unlock()
		if ok && bytes.Equal(a.body, body) {
			return a.sum, a.digest
		}
	}
	a := hotAnswer{sum: sha256.Sum256(body), digest: resultDigest(body)}
	if req.Class == "hot" {
		a.body = append([]byte(nil), body...)
		c.mu.Lock()
		if _, ok := c.hot[req.Key]; !ok {
			c.hot[req.Key] = a
		}
		c.mu.Unlock()
	}
	return a.sum, a.digest
}

// client is one closed-loop client. Its result buffer is reused across
// requests so the benchmark's own allocations stay out of the daemon's
// GC budget as far as possible.
type client struct {
	hc      *http.Client
	base    string
	digests *digestCache
	buf     bytes.Buffer
}

// sweep is one client operation: POST the request, follow the job's SSE
// event stream to its terminal state when it was not a cache hit, then
// GET the result bytes. latency spans POST to last result byte.
func (c *client) sweep(ctx context.Context, req benchRequest, tr *tracer) *svcResult {
	r := &svcResult{req: req}
	body, err := json.Marshal(req.Req)
	if err != nil {
		r.err = err
		return r
	}
	root := tr.begin("service.request", -1)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("service.submit", root)
	st, code, err := postSweep(ctx, c.hc, c.base, body)
	r.submit = time.Since(t0)
	tr.end(sp)
	switch {
	case err != nil:
		r.err = err
		return r
	case code == http.StatusServiceUnavailable:
		r.rejected = true
		r.err = fmt.Errorf("503 from POST /v1/sweeps")
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("POST /v1/sweeps: status %d", code)
		return r
	}
	r.cached = code == http.StatusOK
	if !r.cached {
		t1 := time.Now()
		sp = tr.begin("service.events", root)
		st, err = waitEvents(ctx, c.hc, c.base, st.ID)
		r.events = time.Since(t1)
		tr.end(sp)
		if err != nil {
			r.err = err
			return r
		}
	}
	if st.State != service.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	t2 := time.Now()
	sp = tr.begin("service.result_get", root)
	err = getInto(ctx, c.hc, c.base+"/v1/sweeps/"+st.ID+"/result", &c.buf)
	r.get = time.Since(t2)
	tr.end(sp)
	r.latency = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	r.size = c.buf.Len()
	r.sum, r.digest = c.digests.of(req, c.buf.Bytes())
	if !r.cached {
		r.queueWait, r.run = jobTimes(st)
	}
	return r
}

func postSweep(ctx context.Context, hc *http.Client, base string, body []byte) (service.StatusJSON, int, error) {
	var st service.StatusJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, 0, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			return st, 0, fmt.Errorf("decode POST reply: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}

// waitEvents reads /v1/sweeps/{id}/events until the terminal snapshot.
func waitEvents(ctx context.Context, hc *http.Client, base, id string) (service.StatusJSON, error) {
	var st service.StatusJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, fmt.Errorf("decode event: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("event stream for %s ended before a terminal state", id)
}

// getInto GETs url into buf (reset first).
func getInto(ctx context.Context, hc *http.Client, url string, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// jobTimes reads queue wait and run time from a terminal status.
func jobTimes(st service.StatusJSON) (queueWait, run time.Duration) {
	created, err1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0
	}
	return started.Sub(created), finished.Sub(started)
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * serviceClients}}
}

// runService is the service workload: one daemon, a closed loop of
// serviceClients clients sending the seeded mix for the run length.
func runService(cfg config) (*outcome, error) {
	out := newOutcome()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var gs goldens
	var d *daemon
	err := out.setUp(cfg, func() error {
		var err error
		if gs, err = loadGoldens(cfg.root); err != nil {
			return err
		}
		d, err = startDaemon(hc)
		return err
	}, func() { d.stop() })
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	mix := newServiceMix(cfg.seed)
	tr := newTracer(cfg.trace)
	dc := &digestCache{hot: map[string]hotAnswer{}}
	var (
		mu      sync.Mutex
		results []*svcResult
		wg      sync.WaitGroup
	)
	plan0 := d.svc.Engine().CacheStats()
	alloc0 := totalAlloc()
	start := time.Now()
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{hc: hc, base: d.base, digests: dc}
			for time.Since(start) < cfg.seconds {
				req, seq := mix.next()
				t := offTracer
				// Whole periods alternate, so the traced and untraced
				// halves have the same request mix.
				traced := cfg.trace && (seq/len(svcPeriod))%2 == 1
				var canon time.Duration
				if traced {
					t = tr
					sp := tr.begin("service.Canonicalize", -1)
					if can, err := service.Canonicalize(&req.Req); err == nil {
						_ = can.Hash()
					}
					canon = tr.end(sp)
				}
				r := c.sweep(ctx, req, t)
				r.seq, r.traced, r.canon = seq, traced, canon
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.runLength = time.Since(start)
	// Back to sequence order, whatever order the clients finished in.
	sort.Slice(results, func(i, j int) bool { return results[i].seq < results[j].seq })
	allocMB := float64(totalAlloc()-alloc0) / mib / float64(len(results))
	plan1 := d.svc.Engine().CacheStats()
	retained, listErr := listJobs(ctx, hc, d.base)
	rss := peakRSSMB()
	d.stop()

	// Correctness: every body against its golden digest, every repeat
	// of a key byte-identical to its first answer, and a sample of keys
	// byte-identical to service.RunOnce.
	byKey := map[string][32]byte{}
	var hotSample, missSample []benchRequest
	var hits, misses, tracedHit, tracedMiss []float64
	var hitN, rejectedN int
	var cover, clientLat time.Duration
	var submits, eventsW, gets, sizes, queues, runs, canons []float64
	for _, r := range results {
		out.attempted++
		if r.rejected {
			rejectedN++
		}
		if r.err != nil {
			out.fail("%s: %v", r.req.Key, r.err)
			continue
		}
		if err := gs.check(r.req.Key, r.digest); err != nil {
			out.fail("%v", err)
			continue
		}
		if prev, ok := byKey[r.req.Key]; !ok {
			byKey[r.req.Key] = r.sum
			if r.req.Class == "hot" {
				hotSample = append(hotSample, r.req)
			} else if len(missSample) < probeSample {
				missSample = append(missSample, r.req)
			}
		} else if prev != r.sum {
			out.fail("%s: answer differs from the earlier answer for the same request", r.req.Key)
			continue
		}
		lat := r.latency.Seconds()
		switch {
		case r.cached && r.traced:
			tracedHit = append(tracedHit, lat)
		case r.cached:
			hits = append(hits, lat)
		case r.traced:
			tracedMiss = append(tracedMiss, lat)
		default:
			misses = append(misses, lat)
		}
		if r.cached {
			hitN++
		}
		if r.traced {
			cover += r.submit + r.events + r.get
			clientLat += r.latency
			submits = append(submits, ms(r.submit))
			gets = append(gets, ms(r.get))
			sizes = append(sizes, float64(r.size))
			canons = append(canons, r.canon.Seconds()*usPerSecond)
			if !r.cached {
				eventsW = append(eventsW, ms(r.events))
				queues = append(queues, ms(r.queueWait))
				runs = append(runs, ms(r.run))
			}
		}
	}
	if listErr != nil {
		out.failures = append(out.failures, fmt.Sprintf("list jobs: %v", listErr))
	}
	if err := checkRunOnce(ctx, append(hotSample, missSample...), byKey, out); err != nil {
		return nil, err
	}

	// A round of this workload is one svcPeriod: round_s is the wall
	// time per len(svcPeriod) completed requests at the measured rate.
	// Latency figures come from the untraced requests only.
	completed := len(hits) + len(misses) + len(tracedHit) + len(tracedMiss)
	if completed > 0 {
		rate := float64(completed) / out.runLength.Seconds()
		out.set("req_per_s", "1/s", rate, completed)
		out.set("round_s", "s", float64(len(svcPeriod))/rate, completed)
	}
	out.setMedian("op_p50_ms", "ms", append(append([]float64(nil), hits...), misses...), msPerSecond)
	out.setMedian("hit_p50_ms", "ms", hits, msPerSecond)
	out.setP90("hit_p90_ms", "ms", hits, msPerSecond)
	out.setMedian("miss_p50_ms", "ms", misses, msPerSecond)
	out.setP90("miss_p90_ms", "ms", misses, msPerSecond)
	out.set("alloc_mb_per_op", "MB", allocMB, len(results))
	out.set("peak_rss_mb", "MB", rss, 0)
	if !cfg.trace {
		return out, nil
	}
	// Overhead: mean latency of traced over untraced requests (a ratio
	// of sums over two halves with the same mix).
	u, t := mean(append(hits, misses...)), mean(append(tracedHit, tracedMiss...))
	if u > 0 {
		out.setDerived("trace_overhead_frac", "frac", (t-u)/u, len(tracedHit)+len(tracedMiss))
	}
	out.setMedian("service.canonicalize_us", "us", canons, 1)
	out.setMedian("service.submit_ms", "ms", submits, 1)
	out.setMedian("service.events_ms", "ms", eventsW, 1)
	out.setMedian("service.result_get_ms", "ms", gets, 1)
	out.setMedian("service.result_bytes", "B", sizes, 1)
	out.setMedian("service.queue_wait_ms", "ms", queues, 1)
	out.setMedian("service.run_ms", "ms", runs, 1)
	if clientLat > 0 {
		out.setDerived("service.client_cover_frac", "frac", float64(cover)/float64(clientLat), len(submits))
	}
	out.setDerived("service.hit_frac", "frac", float64(hitN)/float64(len(results)), len(results))
	if lookups := (plan1.Hits - plan0.Hits) + (plan1.Misses - plan0.Misses); lookups > 0 {
		out.setDerived("core.plan_cache_hit_frac", "frac", float64(plan1.Hits-plan0.Hits)/float64(lookups), int(lookups))
	}
	out.set("service.rejected", "count", float64(rejectedN), 0)
	out.set("service.retained_jobs", "count", float64(retained), 0)
	if err := probeSweeps(ctx, tr, missSample, true, out); err != nil {
		return nil, err
	}
	out.spans = tr.snapshot()
	return out, nil
}

// listJobs counts the jobs GET /v1/sweeps still lists.
func listJobs(ctx context.Context, hc *http.Client, base string) (int, error) {
	var buf bytes.Buffer
	if err := getInto(ctx, hc, base+"/v1/sweeps", &buf); err != nil {
		return 0, err
	}
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &list); err != nil {
		return 0, err
	}
	return len(list.Jobs), nil
}

// checkRunOnce re-runs each sampled request through service.RunOnce and
// requires the exact bytes the workload received.
func checkRunOnce(ctx context.Context, sample []benchRequest, got map[string][32]byte, out *outcome) error {
	for _, r := range sample {
		body, err := service.RunOnce(ctx, &r.Req, nil, nil)
		if err != nil {
			return fmt.Errorf("RunOnce %s: %w", r.Key, err)
		}
		if sha256.Sum256(body) != got[r.Key] {
			out.fail("%s: bytes differ from service.RunOnce", r.Key)
		}
	}
	return nil
}

// renderReps is how many paired runs the render probe takes the
// minimum of: the difference of two ~40 ms timings is otherwise noise.
const renderReps = 3

// probeSweeps times the layers under a set of service-style sweeps,
// averaged per sweep:
//   - core.chunk_eval_s: every chunk through EvaluateChunk on a warm
//     engine;
//   - pareto.fold_s: pareto.NewFold, Add and Points over the sweep's
//     retained points on both axis pairs, as the discard path folds;
//   - service.render_ms (withRender): service.RunOnce minus a
//     DiscardPoints ExploreContext on a fresh engine, each the minimum
//     of renderReps alternating runs.
func probeSweeps(ctx context.Context, tr *tracer, sample []benchRequest, withRender bool, out *outcome) error {
	eng := core.NewEngine(nil)
	var chunks, folds, render time.Duration
	for _, r := range sample {
		can, err := service.Canonicalize(&r.Req)
		if err != nil {
			return err
		}
		sweep, model, err := can.Plan()
		if err != nil {
			return err
		}
		root := tr.begin("probe."+r.Key, -1)
		if withRender {
			var once, fresh time.Duration
			for i := 0; i < renderReps; i++ {
				sp := tr.begin("core.ExploreContext.fresh_discard", root)
				e := core.NewEngine(nil)
				e.DiscardPoints = true
				if _, err := e.ExploreContext(ctx, sweep, model); err != nil {
					return err
				}
				d := tr.end(sp)
				if i == 0 || d < fresh {
					fresh = d
				}
				sp = tr.begin("service.RunOnce", root)
				if _, err := service.RunOnce(ctx, &r.Req, nil, nil); err != nil {
					return err
				}
				d = tr.end(sp)
				if i == 0 || d < once {
					once = d
				}
			}
			render += once - fresh
		}
		d, err := timeChunks(ctx, tr, root, eng, sweep, model, true)
		if err != nil {
			return err
		}
		chunks += d
		res, err := eng.ExploreContext(ctx, sweep, model)
		if err != nil {
			return err
		}
		sp := tr.begin("pareto.Fold", root)
		fold := pareto.NewFold(pointDollars, pointWatts)
		cfold := pareto.NewFold(pointTCO, pointCO2)
		for _, p := range res.Points {
			fold.Add(p)
			cfold.Add(p)
		}
		fold.Points()
		cfold.Points()
		folds += tr.end(sp)
		tr.end(root)
	}
	n := len(sample)
	if n == 0 {
		return nil
	}
	out.set("core.chunk_eval_s", "s", chunks.Seconds()/float64(n), n)
	out.set("pareto.fold_s", "s", folds.Seconds()/float64(n), n)
	if withRender {
		out.setDerived("service.render_ms", "ms", ms(render)/float64(n), n)
	}
	return nil
}

// timeChunks evaluates every chunk of the sweep on eng and returns the
// time spent in EvaluateChunk. With warm set, one untimed pass fills the
// engine's thermal-plan cache first.
func timeChunks(ctx context.Context, tr *tracer, parent int, eng *core.Engine, sweep core.Sweep, model tco.Model, warm bool) (time.Duration, error) {
	plan, err := core.PlanSweep(sweep, model, 0)
	if err != nil {
		return 0, err
	}
	passes := []bool{true}
	if warm {
		passes = []bool{false, true}
	}
	var total time.Duration
	for _, timed := range passes {
		for c := 0; c < plan.NumChunks(); c++ {
			t := offTracer
			if timed {
				t = tr
			}
			sp := t.begin("core.EvaluateChunk", parent)
			t0 := time.Now()
			_, err := eng.EvaluateChunk(ctx, sweep, model, plan.ChunkSize(), c)
			d := time.Since(t0)
			t.end(sp)
			if err != nil {
				return 0, err
			}
			if timed {
				total += d
			}
		}
	}
	return total, nil
}

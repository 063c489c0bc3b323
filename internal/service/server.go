package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/tco"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent sweep jobs (default 2). Each
	// sweep additionally parallelizes internally over EngineWorkers
	// goroutines.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64);
	// a full queue turns POST /v1/sweeps into 503, which is the
	// backpressure signal a load balancer retries against another
	// replica.
	QueueDepth int
	// CacheEntries bounds the result LRU (default 128 results; <0
	// disables caching).
	CacheEntries int
	// DefaultTimeout caps a job's run time when the request names none
	// (default 2m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 10m).
	MaxTimeout time.Duration
	// EngineWorkers caps each sweep's internal parallelism (default
	// GOMAXPROCS / Workers, at least 1), so a saturated pool does not
	// oversubscribe the machine.
	EngineWorkers int
	// Logger receives the daemon's structured log lines (request access
	// lines, job lifecycle transitions, engine sweep telemetry), each
	// correlated with trace/span/job IDs. Nil logs nothing.
	Logger *slog.Logger
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.EngineWorkers < 1 {
			c.EngineWorkers = 1
		}
	}
	return c
}

// Server is the exploration job service: a bounded worker pool over one
// shared core.Engine, a job registry, and the result cache. Create it
// with New; it is safe for concurrent use.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	log    *slog.Logger
	engine *core.Engine
	cache  *resultCache
	events *eventHub

	//lint:ignore ctxflow server-lifetime root context, the http.Server.BaseContext pattern: Shutdown calls baseCancel, which cancels every job context derived from it
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // creation order, for the list endpoint
	finished []string // terminal jobs in the order they finished (see retire)
	queue    chan *Job
	draining atomic.Bool
	seq      atomic.Int64

	workerWg sync.WaitGroup

	// explore runs one sweep; tests substitute a fake to script slow or
	// failing jobs deterministically.
	explore func(ctx context.Context, sweep core.Sweep, model tco.Model) (core.Result, error)

	queueDepth  *obs.Gauge
	busyWorkers *obs.Gauge
	sweepSecs   *obs.Histogram
}

// New builds the service and starts its worker pool. The recorder (nil
// is a valid no-op) receives the service's own metrics plus everything
// the shared engine records; mount Handler on an http.Server to serve
// it, and call Shutdown to drain.
func New(cfg Config, rec *obs.Recorder) *Server {
	cfg = cfg.withDefaults()
	reg := rec.Registry()
	reg.SetHelp("asiccloud_jobs_total", "sweep jobs reaching a terminal state, by state")
	reg.SetHelp("asiccloud_queue_depth", "jobs accepted but not yet claimed by a worker")
	reg.SetHelp("asiccloud_busy_workers", "pool workers currently running a sweep")
	reg.SetHelp("asiccloud_sweep_seconds", "wall-clock seconds per engine sweep (cache hits excluded)")
	eng := core.NewEngine(rec)
	eng.DiscardPoints = true // the API returns frontier + optima, never the full point set
	eng.Workers = cfg.EngineWorkers
	eng.Log = cfg.Logger
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		rec:         rec,
		log:         obs.OrNop(cfg.Logger),
		engine:      eng,
		cache:       newResultCache(cfg.CacheEntries, rec),
		events:      newEventHub(),
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        make(map[string]*Job),
		queue:       make(chan *Job, cfg.QueueDepth),
		queueDepth:  rec.Gauge("asiccloud_queue_depth"),
		busyWorkers: rec.Gauge("asiccloud_busy_workers"),
		sweepSecs:   rec.Histogram("asiccloud_sweep_seconds", nil),
	}
	s.explore = s.engine.ExploreContext
	for i := 0; i < cfg.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// Engine exposes the shared engine (for CLI-vs-daemon comparisons and
// cache-stat reporting).
func (s *Server) Engine() *core.Engine { return s.engine }

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workerWg.Done()
	for job := range s.queue {
		s.queueDepth.Add(-1)
		//lint:ignore foldorder arrival order picks which job runs next, not what bytes it produces — each job's canonical result is a pure function of that job alone
		s.runJob(job)
	}
}

// progressPublishInterval throttles SSE progress snapshots, so a fast
// sweep does not flood every subscriber with per-geometry events.
const progressPublishInterval = 100 * time.Millisecond

// runJob executes one queued job end to end.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, job.timeout)
	defer cancel()
	// Rejoin the trace begun at submission: the engine's spans and log
	// lines below parent under (and correlate to) the job's span.
	ctx = obs.WithSpan(ctx, job.span)
	if !job.claim(cancel) {
		// Canceled while queued; requestCancel already finalized it.
		s.mu.Lock()
		s.retire(job)
		s.mu.Unlock()
		s.rec.Counter("asiccloud_jobs_total", "state", string(StateCanceled)).Inc()
		return
	}
	s.busyWorkers.Add(1)
	defer s.busyWorkers.Add(-1)
	s.log.LogAttrs(ctx, slog.LevelInfo, "job started",
		slog.String("job_id", job.id),
		slog.String("request_hash", job.hash))
	s.events.publish(job.Status())
	from := time.Now()

	finish := func(result []byte, err error) {
		job.finish(result, err)
		s.mu.Lock()
		s.retire(job)
		s.mu.Unlock()
		state, _, errMsg := job.snapshot()
		s.rec.Counter("asiccloud_jobs_total", "state", string(state)).Inc()
		attrs := []slog.Attr{
			slog.String("job_id", job.id),
			slog.String("state", string(state)),
			slog.Float64("duration_seconds", time.Since(from).Seconds()),
		}
		level := slog.LevelInfo
		if errMsg != "" {
			attrs = append(attrs, slog.String("error", errMsg))
			level = slog.LevelWarn
		}
		s.log.LogAttrs(ctx, level, "job finished", attrs...)
		s.events.publish(job.Status())
	}

	sweep, model, err := job.can.Plan()
	if err != nil {
		finish(nil, err)
		return
	}
	var lastPublish atomic.Int64
	sweep.Progress = func(done, total int) {
		job.geomsDone.Store(int64(done))
		job.geomsTotal.Store(int64(total))
		now := time.Now().UnixNano()
		last := lastPublish.Load()
		if now-last >= int64(progressPublishInterval) && lastPublish.CompareAndSwap(last, now) {
			s.events.publish(job.Status())
		}
	}
	planBefore := s.engine.CacheStats()
	res, err := s.explore(ctx, sweep, model)
	s.sweepSecs.Observe(time.Since(from).Seconds())
	planAfter := s.engine.CacheStats()
	// The engine is shared, so under concurrent jobs this delta is the
	// engine-wide activity during this job's run — exact when one job
	// runs at a time, an upper bound otherwise.
	job.setSweepStats(res.Pruned,
		planAfter.Hits-planBefore.Hits, planAfter.Misses-planBefore.Misses)
	if err != nil {
		finish(nil, err)
		return
	}
	data, err := marshalResult(job.can, res)
	if err != nil {
		finish(nil, err)
		return
	}
	s.cache.Put(job.hash, data)
	finish(data, nil)
}

// submit canonicalizes, consults the cache, and either completes the
// job instantly (hit) or enqueues it (miss). The returned status is the
// HTTP code the handler writes: 200 for a cache hit, 202 for an
// accepted job, 400/503 with err for rejections. The job's trace span
// is created here as a child of whatever ctx carries (the HTTP request
// span), so the submission, the queued wait and the sweep are one
// connected trace.
func (s *Server) submit(ctx context.Context, req *Request) (*Job, int, error) {
	can, err := Canonicalize(req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.TimeoutSeconds < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("timeout_seconds must be >= 0")
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining; not accepting new sweeps")
	}
	hash := can.Hash()
	ctx, span := s.rec.StartSpan(ctx, "job")
	job := &Job{
		id:      fmt.Sprintf("s%06d-%s", s.seq.Add(1), hash[:12]),
		hash:    hash,
		can:     can,
		timeout: timeout,
		created: time.Now(),
		state:   StateQueued,
		span:    span,
	}

	if data, ok := s.cache.Get(hash); ok {
		job.completeFromCache(data)
		s.mu.Lock()
		s.register(job)
		s.retire(job)
		s.mu.Unlock()
		s.log.LogAttrs(ctx, slog.LevelInfo, "sweep served from cache",
			slog.String("job_id", job.id),
			slog.String("request_hash", hash))
		s.events.publish(job.Status())
		return job, http.StatusOK, nil
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		span.End()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining; not accepting new sweeps")
	}
	select {
	case s.queue <- job:
		s.queueDepth.Add(1)
	default:
		depth := s.cfg.QueueDepth
		s.mu.Unlock()
		span.End()
		s.log.LogAttrs(ctx, slog.LevelWarn, "sweep rejected: queue full",
			slog.String("request_hash", hash),
			slog.Int("queue_depth", depth))
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("job queue full (%d queued); retry later", depth)
	}
	s.register(job)
	s.mu.Unlock()
	s.log.LogAttrs(ctx, slog.LevelInfo, "sweep queued",
		slog.String("job_id", job.id),
		slog.String("request_hash", hash))
	s.events.publish(job.Status())
	return job, http.StatusAccepted, nil
}

// maxTerminalJobs bounds how many finished (done, failed or canceled)
// jobs the registry retains — the same bound the recorder puts on
// retained traces. Without it every finished job would keep its result
// bytes for the life of the daemon.
const maxTerminalJobs = 256

// register files a job in the registry; callers hold s.mu.
func (s *Server) register(job *Job) {
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
}

// retire records that a registered job reached a terminal state and
// evicts the jobs that finished longest ago beyond maxTerminalJobs, so
// their ids answer 404. Only retired jobs are evicted: a queued or
// running job never is. Callers hold s.mu.
func (s *Server) retire(job *Job) {
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxTerminalJobs {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
	}
}

// lookup returns a registered job.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Shutdown drains the service: new submissions get 503 immediately,
// queued and running jobs are allowed to finish, and the call returns
// when the pool is idle. If ctx expires first, in-flight sweeps are
// hard-canceled through their contexts (they stop within one geometry's
// work) and the pool is still waited for, so no worker goroutine
// outlives the call. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workerWg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-idle
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorJSON is the uniform error body.
type errorJSON struct {
	// Error is a human-readable reason.
	Error string `json:"error"`
}

// writeJSON writes a JSON response body with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	//lint:ignore droppederr a failed response write means the client went away; there is no one left to tell
	_ = enc.Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// maxRequestBody bounds POST bodies (bytes); sweep requests are small.
const maxRequestBody = 1 << 20

// handleSubmit is POST /v1/sweeps.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// net/http closes the request body after the handler returns.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	job, code, err := s.submit(r.Context(), &req)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, code, job.Status())
}

// handleList is GET /v1/sweeps.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []StatusJSON `json:"jobs"`
	}{Jobs: make([]StatusJSON, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/sweeps/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleResult is GET /v1/sweeps/{id}/result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	state, result, errMsg := job.snapshot()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//lint:ignore droppederr a failed response write means the client went away; there is no one left to tell
		_, _ = w.Write(result)
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusAccepted, job.Status())
	case StateCanceled:
		writeError(w, http.StatusConflict, fmt.Errorf("job canceled: %s", errMsg))
	default: // StateFailed
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("sweep failed: %s", errMsg))
	}
}

// handleCancel is DELETE /v1/sweeps/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	job.requestCancel()
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "job cancel requested",
		slog.String("job_id", job.id))
	s.events.publish(job.Status())
	writeJSON(w, http.StatusOK, job.Status())
}

// TraceJSON is the body of GET /v1/sweeps/{id}/trace: the job's
// connected span set (flat and as a tree) plus the sweep accounting
// that explains where the time went.
type TraceJSON struct {
	// JobID, State, TraceID and RequestHash identify the job; Cached
	// marks results served without running the engine.
	JobID       string `json:"job_id"`
	State       State  `json:"state"`
	TraceID     string `json:"trace_id"`
	RequestHash string `json:"request_hash"`
	Cached      bool   `json:"cached"`
	// PlanCacheHits/Misses are the thermal-plan cache's delta across
	// this job's run (engine-wide when jobs overlap).
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// Pruned is the engine's exact candidate accounting (null until the
	// sweep has run).
	Pruned *core.PruneSummary `json:"pruned,omitempty"`
	// SpansTruncated counts spans dropped to the per-trace retention
	// bound; nonzero means the tree below is incomplete.
	SpansTruncated int `json:"spans_truncated,omitempty"`
	// Spans is every retained span of the trace in start order; Tree is
	// the same set nested by parent link.
	Spans []obs.SpanInfo  `json:"spans"`
	Tree  []*obs.SpanNode `json:"tree"`
}

// handleTrace is GET /v1/sweeps/{id}/trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	st := job.Status()
	pruned, planHits, planMisses := job.sweepStats()
	spans, truncated := s.rec.Trace(job.span.TraceID())
	//lint:ignore detflow the trace view is a live snapshot — open spans report elapsed-so-far durations by design; the canonical artifact is the cached result body, not this endpoint
	writeJSON(w, http.StatusOK, TraceJSON{
		JobID:           st.ID,
		State:           st.State,
		TraceID:         st.TraceID,
		RequestHash:     st.RequestHash,
		Cached:          st.Cached,
		PlanCacheHits:   planHits,
		PlanCacheMisses: planMisses,
		Pruned:          pruned,
		SpansTruncated:  truncated,
		Spans:           spans,
		Tree:            obs.BuildSpanTree(spans),
	})
}

// handleEvents is GET /v1/sweeps/{id}/events: a Server-Sent Events
// stream of StatusJSON snapshots — one on connect, one per lifecycle
// transition, throttled progress ticks while running — that closes
// itself after the terminal snapshot, so `curl -N` ends when the job
// does.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	// Subscribe before the initial snapshot so a transition between the
	// two is seen on the channel rather than lost.
	ch, unsubscribe := s.events.subscribe(job.id)
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	send := func(st StatusJSON) bool {
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", data); err != nil {
			// The client went away; the stream just ends.
			return false
		}
		return rc.Flush() == nil
	}
	st := job.Status()
	if !send(st) || st.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case st := <-ch:
			if !send(st) || st.State.Terminal() {
				return
			}
		}
	}
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	hits, misses := s.cache.Stats()
	writeJSON(w, code, struct {
		Status      string `json:"status"`
		Jobs        int    `json:"jobs"`
		CacheHits   int64  `json:"cache_hits"`
		CacheMisses int64  `json:"cache_misses"`
	}{status, n, hits, misses})
}

// Handler returns the service's HTTP API plus the observability
// endpoints (/metrics, /debug/vars, /debug/pprof/) of the recorder the
// server was built with.
func (s *Server) Handler() http.Handler {
	reg := s.rec.Registry()
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(s.rec, s.log, label, h))
	}
	route("POST /v1/sweeps", "/v1/sweeps", s.handleSubmit)
	route("GET /v1/sweeps", "/v1/sweeps", s.handleList)
	route("GET /v1/sweeps/{id}", "/v1/sweeps/{id}", s.handleStatus)
	route("GET /v1/sweeps/{id}/result", "/v1/sweeps/{id}/result", s.handleResult)
	route("GET /v1/sweeps/{id}/trace", "/v1/sweeps/{id}/trace", s.handleTrace)
	route("GET /v1/sweeps/{id}/events", "/v1/sweeps/{id}/events", s.handleEvents)
	route("DELETE /v1/sweeps/{id}", "/v1/sweeps/{id}", s.handleCancel)
	route("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	oh := obs.Handler(reg)
	mux.Handle("/metrics", oh)
	mux.Handle("/debug/", oh)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", r.URL.Path))
			return
		}
		fmt.Fprintln(w, "asiccloudd: POST /v1/sweeps, GET /v1/sweeps/{id}[/result|/trace|/events], DELETE /v1/sweeps/{id}, /v1/healthz, /metrics, /debug/pprof/")
	})
	return mux
}

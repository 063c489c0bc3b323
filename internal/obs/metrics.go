package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored:
// counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into a fixed cumulative bucket
// layout (Prometheus-style "le" buckets plus +Inf).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, strictly increasing; +Inf implicit
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  int64
	// min and max are the extreme observations, which bound every
	// quantile estimate (valid once count > 0).
	min, max float64
}

// LatencyBuckets is the fixed default layout for durations in seconds,
// spanning 100 µs to 60 s exponentially — wide enough for both
// microsecond pool jobs and multi-second design-space sweeps.
func LatencyBuckets() []float64 {
	return []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the owning bucket, the same estimate Prometheus's
// histogram_quantile uses, then clamps it to the observed minimum and
// maximum: interpolation assumes samples spread across the bucket, so
// without the clamp a single 0.080 s sample would report p50 = 0.075
// and p99 = 0.0995. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	return min(max(h.interpolate(q), h.min), h.max)
}

// interpolate is the unclamped bucket estimate; callers hold h.mu and
// guarantee h.count > 0.
func (h *Histogram) interpolate(q float64) float64 {
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket: the last bound, then the clamp
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns bounds and cumulative counts for exposition.
func (h *Histogram) snapshot() (bounds []float64, cumulative []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.counts))
	var cum int64
	for i, c := range h.counts {
		cum += c
		cumulative[i] = cum
	}
	return bounds, cumulative, h.sum, h.count
}

// metricKind tags registry entries for the TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series: a base name plus rendered labels.
type metric struct {
	name   string // base metric name, e.g. asiccloud_explore_configs_total
	labels string // rendered label block, e.g. {reason="thermal_infeasible"} or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (m *metric) key() string { return m.name + m.labels }

// Registry holds named metrics and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	metrics    map[string]*metric
	order      []string // registration order of keys, for stable output
	help       map[string]string
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
	}
}

// renderLabels formats k/v pairs as a Prometheus label block. Pairs are
// taken in the given order; an odd trailing key is dropped.
func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(labels[i+1])
		fmt.Fprintf(&b, `%s="%s"`, labels[i], v)
	}
	b.WriteByte('}')
	return b.String()
}

// get registers (or finds) a series and fully initializes its value
// under the registry lock, so callers never see a half-built metric.
func (r *Registry) get(name string, labels []string, kind metricKind, bounds []float64) *metric {
	m := &metric{name: name, labels: renderLabels(labels), kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.metrics[m.key()]; ok {
		return got
	}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		m.h = newHistogram(bounds)
	}
	r.metrics[m.key()] = m
	r.order = append(r.order, m.key())
	return m
}

// Counter returns (registering on first use) the counter with the given
// name and optional label k/v pairs. Nil-safe: a nil registry returns a
// nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindCounter, nil).c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindGauge, nil).g
}

// Histogram returns (registering on first use) the named histogram.
// bounds apply only on first registration; pass nil for the fixed
// LatencyBuckets layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindHistogram, bounds).h
}

// SetHelp attaches a HELP line to a base metric name.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// OnCollect registers a collector invoked (without the registry lock)
// at the start of every WritePrometheus call, so sampled values —
// runtime memory stats, queue depths read from elsewhere — are fresh
// at scrape time. Collectors typically Set gauges on the same
// registry. Nil-safe; a nil f is ignored.
func (r *Registry) OnCollect(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), grouping series of the same base
// name under one TYPE header. Registered collectors run first, so
// sampled gauges are fresh.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	collectors := make([]func(), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	byKey := make(map[string]*metric, len(r.metrics))
	for k, m := range r.metrics {
		byKey[k] = m
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	typed := make(map[string]bool)
	header := func(m *metric) {
		if typed[m.name] {
			return
		}
		typed[m.name] = true
		if h := help[m.name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, h)
		}
		t := "counter"
		switch m.kind {
		case kindGauge:
			t = "gauge"
		case kindHistogram:
			t = "histogram"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, t)
	}
	for _, k := range keys {
		m := byKey[k]
		if m == nil {
			continue
		}
		header(m)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.g.Value()))
		case kindHistogram:
			bounds, cum, sum, count := m.h.snapshot()
			inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
			sep := ""
			if inner != "" {
				sep = ","
			}
			for i, b := range bounds {
				fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", m.name, inner, sep, formatFloat(b), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", m.name, inner, sep, cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, count)
		}
	}
}

func formatFloat(v float64) string {
	//lint:ignore floatcmp exact integrality test only selects the text representation
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counters returns a snapshot of every counter series (key includes
// labels) — the raw material for run reports.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64)
	for k, m := range r.metrics {
		if m.kind == kindCounter {
			out[k] = m.c.Value()
		}
	}
	return out
}

// Gauges returns a snapshot of every gauge series.
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for k, m := range r.metrics {
		if m.kind == kindGauge {
			out[k] = m.g.Value()
		}
	}
	return out
}

// HistogramSummary is the report-friendly digest of one histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Histograms returns a summary snapshot of every histogram series.
func (r *Registry) Histograms() map[string]HistogramSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram)
	for k, m := range r.metrics {
		if m.kind == kindHistogram {
			hists[k] = m.h
		}
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSummary, len(hists))
	for k, h := range hists {
		s := HistogramSummary{Count: h.Count(), Sum: h.Sum()}
		if s.Count > 0 {
			s.P50 = h.Quantile(0.50)
			s.P99 = h.Quantile(0.99)
		}
		out[k] = s
	}
	return out
}

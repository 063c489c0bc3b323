package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least ⌈q·n⌉ samples at or below it. It never
// interpolates, so every reported value is one that was measured. ok is
// false for an empty sample set.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minTail is how many samples must lie beyond a tail quantile before it
// is reported: fewer than that and the "p90" is one or two outliers.
const minTail = 10

// tailQuantile is quantile restricted to tails backed by at least
// minTail samples beyond the reported rank.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	v, ok := quantile(xs, q)
	if !ok {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	if len(xs)-rank < minTail {
		return 0, false
	}
	return v, true
}

// span is one timed call recorded by the benchmark's own code: a name
// naming the layer entered, start and end offsets from the tracer's
// epoch, and the index of the span that caused it (-1 for roots).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once at the end. A disabled tracer records nothing and costs one
// branch per call, which is what the untraced runs use.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id and returns its duration (0 when tracing is off).
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes sums, per span name, the total duration and the self time:
// a span's duration minus the part of its interval covered by its
// children. Children may overlap (concurrent workers under one sweep),
// so coverage is the length of the union of their intervals, clipped to
// the parent's. Open spans (End < 0) are ignored.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(spans, children[i], s.Start, s.End)
	}
	return total, self
}

// covered is the length of the union of the closed child intervals
// within [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.End < c.Start {
			continue
		}
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			sum += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

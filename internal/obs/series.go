package obs

import (
	"math"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// DefaultSeriesCap is the per-series ring capacity when the caller
// does not choose one: at the default 1-minute cadence it retains just
// under three days of samples before the ring starts dropping the
// oldest points.
const DefaultSeriesCap = 4096

// Point is one (simulated time, value) sample.
type Point struct {
	At simtime.Time
	V  float64
}

// series is one named ring-buffered sampler.
type series struct {
	pts      []Point // ring storage; len(pts) == cap once full
	head     int     // index of the oldest retained point
	n        int     // retained point count
	dropped  int64   // points evicted by the ring
	watchers []func(at simtime.Time, v float64)
}

// SeriesSet is a registry of named time series sampled on the
// simulated clock: GPU counts, throughput, cumulative dollars,
// recovery latencies — the continuous signals the end-of-run Metrics
// snapshot flattens away. A nil *SeriesSet is the disabled registry:
// every method is an immediate return, so instrumented hot paths stay
// bit-identical and allocation-free when sampling is off (the same
// discipline as the Tracer and Metrics).
//
// Determinism: points carry only simulated time and values derived
// from it, and recording order is the event loop's execution order, so
// a replayed scenario exports byte-identical series.
type SeriesSet struct {
	mu     sync.Mutex
	cap    int
	names  []string // registration order
	series map[string]*series
}

// NewSeriesSet builds an enabled registry whose rings retain up to
// capacity points each (DefaultSeriesCap when capacity <= 0).
func NewSeriesSet(capacity int) *SeriesSet {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &SeriesSet{cap: capacity}
}

// Enabled reports whether the registry records anything.
func (s *SeriesSet) Enabled() bool { return s != nil }

// get looks up or registers a series. Caller holds the lock.
func (s *SeriesSet) get(name string) *series {
	sr := s.series[name]
	if sr == nil {
		if s.series == nil {
			s.series = make(map[string]*series)
		}
		sr = &series{}
		s.series[name] = sr
		s.names = append(s.names, name)
	}
	return sr
}

// Record appends one sample to the named series (registering it on
// first use) and feeds every watcher attached to that name.
func (s *SeriesSet) Record(name string, at simtime.Time, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	sr := s.get(name)
	if sr.n < s.cap {
		sr.pts = append(sr.pts, Point{At: at, V: v})
		sr.n++
	} else {
		sr.pts[sr.head] = Point{At: at, V: v}
		sr.head = (sr.head + 1) % s.cap
		sr.dropped++
	}
	watchers := sr.watchers
	s.mu.Unlock()
	for _, w := range watchers {
		w(at, v)
	}
}

// Watch attaches an online observer to a series (registering the name
// if new): fn runs synchronously on every Record, in attach order —
// the feed the SLO monitors evaluate on.
func (s *SeriesSet) Watch(name string, fn func(at simtime.Time, v float64)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	sr := s.get(name)
	sr.watchers = append(sr.watchers, fn)
	s.mu.Unlock()
}

// Names returns the registered series names, sorted — the
// deterministic export order.
func (s *SeriesSet) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.names))
	copy(out, s.names)
	sort.Strings(out)
	return out
}

// Points snapshots the retained points of a series in chronological
// order (nil for unknown names or a nil registry).
func (s *SeriesSet) Points(name string) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil || sr.n == 0 {
		return nil
	}
	out := make([]Point, 0, sr.n)
	for i := 0; i < sr.n; i++ {
		out = append(out, sr.pts[(sr.head+i)%len(sr.pts)])
	}
	return out
}

// Len reports the retained point count of a series.
func (s *SeriesSet) Len(name string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr := s.series[name]; sr != nil {
		return sr.n
	}
	return 0
}

// Dropped reports how many points the ring evicted from a series.
func (s *SeriesSet) Dropped(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr := s.series[name]; sr != nil {
		return sr.dropped
	}
	return 0
}

// SeriesSummary condenses one series' retained points — the
// per-series line the reports and the bench history carry.
type SeriesSummary struct {
	Count   int     `json:"count"`
	Dropped int64   `json:"dropped,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Last    float64 `json:"last"`
}

// Summary computes the summary of one series (ok is false for unknown
// names, empty series, or a nil registry). Quantiles are nearest-rank
// over the retained points.
func (s *SeriesSet) Summary(name string) (SeriesSummary, bool) {
	pts := s.Points(name)
	if len(pts) == 0 {
		return SeriesSummary{}, false
	}
	vals := make([]float64, len(pts))
	sum := 0.0
	for i, p := range pts {
		vals[i] = p.V
		sum += p.V
	}
	sort.Float64s(vals)
	out := SeriesSummary{
		Count:   len(pts),
		Dropped: s.Dropped(name),
		Min:     vals[0],
		Max:     vals[len(vals)-1],
		Mean:    sum / float64(len(vals)),
		P50:     Quantile(vals, 0.50),
		P99:     Quantile(vals, 0.99),
		Last:    pts[len(pts)-1].V,
	}
	return out, true
}

// Quantile is the exact nearest-rank quantile of an ascending slice:
// the smallest value with at least q of the samples at or below it
// (index ⌈q·n⌉−1). An empty slice yields 0.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

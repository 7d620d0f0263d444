package obs

import (
	"bytes"
	"testing"

	"repro/internal/simtime"
)

func TestSeriesNilSafe(t *testing.T) {
	var s *SeriesSet
	s.Record("x", 0, 1)
	s.Watch("x", func(simtime.Time, float64) {})
	if s.Enabled() || s.Len("x") != 0 || s.Points("x") != nil || s.Names() != nil || s.Dropped("x") != 0 {
		t.Fatal("nil SeriesSet must no-op everywhere")
	}
	if _, ok := s.Summary("x"); ok {
		t.Fatal("nil SeriesSet summary must report absent")
	}
}

func TestSeriesDisabledZeroAlloc(t *testing.T) {
	var s *SeriesSet
	allocs := testing.AllocsPerRun(100, func() {
		s.Record("gpus", 42, 64)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v/op", allocs)
	}
}

func TestSeriesRecordOrder(t *testing.T) {
	s := NewSeriesSet(0)
	for i := 0; i < 5; i++ {
		s.Record("a", simtime.Time(i), float64(i*10))
	}
	pts := s.Points("a")
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.At != simtime.Time(i) || p.V != float64(i*10) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeriesSet(3)
	for i := 0; i < 7; i++ {
		s.Record("a", simtime.Time(i), float64(i))
	}
	pts := s.Points("a")
	if len(pts) != 3 || s.Dropped("a") != 4 {
		t.Fatalf("ring kept %d dropped %d", len(pts), s.Dropped("a"))
	}
	for i, want := range []float64{4, 5, 6} {
		if pts[i].V != want {
			t.Fatalf("ring pts %+v", pts)
		}
	}
}

func TestSeriesNamesSorted(t *testing.T) {
	s := NewSeriesSet(0)
	s.Record("z", 0, 1)
	s.Record("a", 0, 1)
	s.Record("m", 0, 1)
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("names %v", names)
	}
}

func TestSeriesSummary(t *testing.T) {
	s := NewSeriesSet(0)
	for i, v := range []float64{5, 1, 9, 3, 7} {
		s.Record("a", simtime.Time(i), v)
	}
	sum, ok := s.Summary("a")
	if !ok {
		t.Fatal("summary absent")
	}
	if sum.Count != 5 || sum.Min != 1 || sum.Max != 9 || sum.Mean != 5 || sum.P50 != 5 || sum.P99 != 9 || sum.Last != 7 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestSeriesWatch(t *testing.T) {
	s := NewSeriesSet(0)
	var got []float64
	s.Watch("a", func(at simtime.Time, v float64) { got = append(got, v) })
	s.Record("a", 0, 1)
	s.Record("b", 1, 99) // different series: watcher must not fire
	s.Record("a", 2, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("watched %v", got)
	}
}

func TestSeriesCSVByteStable(t *testing.T) {
	build := func() *SeriesSet {
		s := NewSeriesSet(0)
		s.Record("b", 10, 0.5)
		s.Record("a", 0, 1)
		s.Record("a", simtime.Time(simtime.Hour), 2.25)
		return s
	}
	a, b := build().CSV(), build().CSV()
	if !bytes.Equal(a, b) {
		t.Fatal("identical recordings export different CSV bytes")
	}
	want := "series,t_us,value\na,0,1\na,3600000000,2.25\nb,10,0.5\n"
	if string(a) != want {
		t.Fatalf("csv:\n%s", a)
	}
}

func TestSeriesCSVNil(t *testing.T) {
	var s *SeriesSet
	if string(s.CSV()) != "series,t_us,value\n" {
		t.Fatalf("nil csv %q", s.CSV())
	}
}

func TestOpenMetricsStable(t *testing.T) {
	build := func() ([]byte, error) {
		m := NewMetrics()
		m.Count("preempts", 3)
		m.Gauge("dollars.total", 1.5)
		m.Observe("recovery_us", 100)
		s := NewSeriesSet(0)
		s.Record("gpus", 0, 8)
		s.Record("gpus", 1, 6)
		return OpenMetrics(m.Snapshot(SimOnly), s), nil
	}
	a, _ := build()
	b, _ := build()
	if !bytes.Equal(a, b) {
		t.Fatal("identical state exports different OpenMetrics bytes")
	}
	for _, want := range []string{
		"# TYPE varuna_preempts counter\nvaruna_preempts_total 3\n",
		"# TYPE varuna_dollars_total gauge\nvaruna_dollars_total 1.5\n",
		"varuna_recovery_us_count 1\n",
		"# TYPE varuna_series_gpus gauge\nvaruna_series_gpus 6\n",
		"# EOF\n",
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("OpenMetrics missing %q in:\n%s", want, a)
		}
	}
}

// TestQuantileNearestRank pins the one exact quantile every summary
// uses: index ⌈q·n⌉−1 over the sorted samples, so the median of two
// samples is the lower one.
func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		p50, p99 float64
	}{
		{1, 1, 1},
		{2, 1, 2},
		{4, 2, 4},
		{100, 50, 99},
	} {
		vals := seq(tc.n)
		if got := Quantile(vals, 0.5); got != tc.p50 {
			t.Errorf("n=%d: p50 = %v, want %v", tc.n, got, tc.p50)
		}
		if got := Quantile(vals, 0.99); got != tc.p99 {
			t.Errorf("n=%d: p99 = %v, want %v", tc.n, got, tc.p99)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

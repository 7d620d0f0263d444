package obs

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// Monitor is one online SLO evaluator: it watches a series, aggregates
// it over a rolling window, compares against a threshold, and counts
// breach episodes. Feed it by attaching Observe as a SeriesSet watcher
// — evaluation happens inline, in the event loop's deterministic
// order, so breach instants replay bit-identically.
//
// Burn-rate semantics: a sample that violates the comparison starts
// (or continues) a violation episode; the episode becomes a *breach*
// once it has lasted For continuously (immediately when For == 0).
// Each episode breaches at most once; compliance resets it.
type Monitor struct {
	// Name identifies the rule in reports and metrics
	// ("slo.breach.<name>").
	Name string
	// Expr is the original rule text, kept for reports.
	Expr string
	// Series is the watched series name (already job-prefixed in
	// fleet mode).
	Series string
	// Agg aggregates the window: "last", "min", "max", "mean", "p50",
	// "p90", "p99".
	Agg string
	// Op compares the aggregate to Threshold: "<", "<=", ">", ">=".
	Op string
	// Threshold is the bound, in the series' own unit.
	Threshold float64
	// Window bounds the rolling aggregation window (0 = all retained
	// samples). Ignored when Agg is "last".
	Window simtime.Duration
	// For is the burn window: how long a violation must persist
	// before it counts as a breach.
	For simtime.Duration
	// Enforce marks the rule as run-failing: breaches become report
	// violations and a nonzero exit.
	Enforce bool
	// Job names the fleet job the rule applies to ("" single-job).
	Job string
	// OnBreach, when set, fires once per breach episode with the
	// breach instant and the offending aggregate value.
	OnBreach func(at simtime.Time, v float64)

	win         []Point // rolling buffer (unused when Agg == "last")
	samples     int
	last        float64
	worst       float64
	hasWorst    bool
	violating   bool
	violSince   simtime.Time
	episodeHit  bool
	breaches    int
	firstBreach simtime.Time
}

// Observe feeds one sample. Attach via SeriesSet.Watch.
func (m *Monitor) Observe(at simtime.Time, v float64) {
	agg := v
	if m.Agg != "last" {
		m.win = append(m.win, Point{At: at, V: v})
		if m.Window > 0 {
			cut := at - simtime.Time(m.Window)
			i := 0
			for i < len(m.win) && m.win[i].At < cut {
				i++
			}
			if i > 0 {
				m.win = append(m.win[:0], m.win[i:]...)
			}
		}
		agg = m.aggregate()
	}
	m.samples++
	m.last = agg
	if !m.hasWorst || m.worse(agg) {
		m.worst = agg
		m.hasWorst = true
	}
	if m.compare(agg) {
		m.violating = false
		m.episodeHit = false
		return
	}
	if !m.violating {
		m.violating = true
		m.violSince = at
	}
	if !m.episodeHit && simtime.Duration(at-m.violSince) >= m.For {
		m.episodeHit = true
		m.breaches++
		if m.breaches == 1 {
			m.firstBreach = at
		}
		if m.OnBreach != nil {
			m.OnBreach(at, agg)
		}
	}
}

// aggregate computes the windowed aggregate.
func (m *Monitor) aggregate() float64 {
	if len(m.win) == 0 {
		return 0
	}
	switch m.Agg {
	case "min":
		v := m.win[0].V
		for _, p := range m.win[1:] {
			if p.V < v {
				v = p.V
			}
		}
		return v
	case "max":
		v := m.win[0].V
		for _, p := range m.win[1:] {
			if p.V > v {
				v = p.V
			}
		}
		return v
	case "mean":
		sum := 0.0
		for _, p := range m.win {
			sum += p.V
		}
		return sum / float64(len(m.win))
	default: // p50/p90/p99
		q := 0.5
		switch m.Agg {
		case "p90":
			q = 0.90
		case "p99":
			q = 0.99
		}
		vals := make([]float64, len(m.win))
		for i, p := range m.win {
			vals[i] = p.V
		}
		// Insertion sort: windows are small and mostly ordered.
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return Quantile(vals, q)
	}
}

// compare reports whether the aggregate satisfies the rule.
func (m *Monitor) compare(v float64) bool {
	switch m.Op {
	case "<":
		return v < m.Threshold
	case "<=":
		return v <= m.Threshold
	case ">":
		return v > m.Threshold
	default: // ">="
		return v >= m.Threshold
	}
}

// worse reports whether v is further into violation territory than the
// current worst.
func (m *Monitor) worse(v float64) bool {
	if m.Op == "<" || m.Op == "<=" {
		return v > m.worst
	}
	return v < m.worst
}

// SLOResult is the per-rule entry in the report's slo section.
type SLOResult struct {
	Name             string  `json:"name"`
	Expr             string  `json:"expr"`
	Job              string  `json:"job,omitempty"`
	Mode             string  `json:"mode"`
	Samples          int     `json:"samples"`
	Breaches         int     `json:"breaches"`
	FirstBreachHours float64 `json:"first_breach_hours,omitempty"`
	Worst            float64 `json:"worst"`
	Last             float64 `json:"last"`
	OK               bool    `json:"ok"`
}

// Result snapshots the monitor's outcome.
func (m *Monitor) Result() SLOResult {
	mode := "warn"
	if m.Enforce {
		mode = "enforce"
	}
	r := SLOResult{
		Name: m.Name, Expr: m.Expr, Job: m.Job, Mode: mode,
		Samples: m.samples, Breaches: m.breaches,
		Worst: m.worst, Last: m.last, OK: m.breaches == 0,
	}
	if m.breaches > 0 {
		r.FirstBreachHours = m.firstBreach.Hours()
	}
	return r
}

// Breaches reports the breach-episode count so far.
func (m *Monitor) Breaches() int { return m.breaches }

// ParseSLOExpr parses a rule expression of the form
//
//	<series>[-<agg>] <op> <threshold>
//
// where op is one of < <= > >= and threshold is a plain float, a
// percentage ("3%" → 0.03) or a duration ("120s", "500ms", "2m",
// "1.5h" → seconds). The agg suffix is one of -min -max -mean -p50
// -p90 -p99; without it the rule evaluates each sample directly
// ("last").
func ParseSLOExpr(expr string) (seriesName, agg, op string, threshold float64, err error) {
	fields := strings.Fields(expr)
	if len(fields) != 3 {
		return "", "", "", 0, fmt.Errorf("slo expr %q: want \"<series> <op> <value>\"", expr)
	}
	seriesName, op = fields[0], fields[1]
	switch op {
	case "<", "<=", ">", ">=":
	default:
		return "", "", "", 0, fmt.Errorf("slo expr %q: unknown op %q", expr, op)
	}
	agg = "last"
	for _, suf := range []string{"min", "max", "mean", "p50", "p90", "p99"} {
		if strings.HasSuffix(seriesName, "-"+suf) {
			agg = suf
			seriesName = seriesName[:len(seriesName)-len(suf)-1]
			break
		}
	}
	if seriesName == "" {
		return "", "", "", 0, fmt.Errorf("slo expr %q: empty series name", expr)
	}
	threshold, err = parseThreshold(fields[2])
	if err != nil {
		return "", "", "", 0, fmt.Errorf("slo expr %q: %v", expr, err)
	}
	return seriesName, agg, op, threshold, nil
}

// parseThreshold parses a plain float, a percentage, or a duration
// (yielding seconds).
func parseThreshold(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if strings.HasSuffix(s, "%") {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad percentage %q", s)
		}
		return v / 100, nil
	}
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"s", 1}, {"m", 60}, {"h", 3600}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				continue
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("bad threshold %q (want float, percentage, or duration)", s)
}

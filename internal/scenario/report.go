package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/fleet"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// Report is the structured outcome of a scenario run: progress,
// decisions, dollars, recovery latencies and the robustness-invariant
// checks. It marshals to stable JSON (struct field order), so a
// bit-identical replay emits byte-identical report files.
type Report struct {
	Scenario    string `json:"scenario"`
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`

	HorizonHours float64 `json:"horizon_hours"`
	// MarketEvents counts the merged fleet events delivered to the
	// manager; ScriptEvents the scripted+chaos events compiled in;
	// SkippedEvents the ones dropped for want of a live victim.
	MarketEvents  int `json:"market_events"`
	ScriptEvents  int `json:"script_events"`
	SkippedEvents int `json:"skipped_events"`
	TimelineLen   int `json:"timeline_len"`

	Stats manager.Stats `json:"stats"`

	// DowntimeFrac is total downtime over the horizon.
	DowntimeFrac float64 `json:"downtime_frac"`

	// Recovery summarizes preemption→decision latencies: how long the
	// manager took to re-decide after each preemption it applied.
	Recovery RecoveryStats `json:"recovery"`

	// Violations lists failed robustness invariants (lost progress,
	// double billing, a clock running backwards) plus enforce-mode SLO
	// breaches. Empty means the run is internally consistent.
	Violations []string `json:"violations"`

	// SLOs is the per-rule outcome of the scenario's declarative SLO
	// monitors. Absent — and the report bytes unchanged — when the
	// scenario declares none.
	SLOs []obs.SLOResult `json:"slo,omitempty"`

	// Obs is the deterministic (SimOnly) metrics-registry snapshot of
	// an observed run: simulated-time histograms, counters and gauges,
	// with the wall-clock self-profiling section excluded so replays
	// stay byte-identical. Absent — and the report bytes unchanged —
	// when the run was not observed.
	Obs *obs.Snap `json:"obs,omitempty"`
}

// RecoveryStats aggregates preemption recovery latencies.
type RecoveryStats struct {
	// Acknowledged counts preemption instants followed by a manager
	// decision point; Unacknowledged the rest (preemptions of
	// voluntarily released VMs never reach the manager and land here).
	Acknowledged   int     `json:"acknowledged"`
	Unacknowledged int     `json:"unacknowledged"`
	MeanSeconds    float64 `json:"mean_seconds"`
	MaxSeconds     float64 `json:"max_seconds"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary renders the human-readable run summary.
func (r *Report) Summary() string {
	var b strings.Builder
	s := r.Stats
	fmt.Fprintf(&b, "scenario %s: %.1fh horizon, %d market events, %d scripted (%d skipped)\n",
		r.Scenario, r.HorizonHours, r.MarketEvents, r.ScriptEvents, r.SkippedEvents)
	fmt.Fprintf(&b, "progress:  %d mini-batches (%.2fM examples), %d lost to rollbacks, %d checkpoints\n",
		s.MiniBatches, s.Examples/1e6, s.LostMiniBatches, s.Checkpoints)
	fmt.Fprintf(&b, "decisions: %d morphs, %d replacements, %d holds, %d stragglers excluded, %d VMs released\n",
		s.Morphs, s.Replacements, s.Holds, s.StragglersExcluded, s.VMsReleased)
	fmt.Fprintf(&b, "fleet:     %d allocations, %d preemptions\n", s.Allocations, s.Preemptions)
	fmt.Fprintf(&b, "downtime:  %v total (%v reconfiguration) — %.1f%% of the horizon\n",
		s.Downtime, s.MorphDowntime, 100*r.DowntimeFrac)
	if s.DollarsSpent > 0 {
		fmt.Fprintf(&b, "dollars:   $%.2f = $%.2f compute + $%.2f reconfig + $%.2f idle ($%.2f per 1k examples)\n",
			s.DollarsSpent, s.DollarsCompute, s.DollarsReconfig, s.DollarsIdle, 1000*s.DollarsPerExample())
	}
	if s.Failovers > 0 || s.UnrecoverableOutages > 0 {
		fmt.Fprintf(&b, "outages:   %d failover(s) costing %v, %d unrecoverable\n",
			s.Failovers, s.FailoverDowntime, s.UnrecoverableOutages)
	}
	if r.Recovery.Acknowledged > 0 {
		fmt.Fprintf(&b, "recovery:  %d preemptions acknowledged (mean %.0fs, max %.0fs), %d unacknowledged\n",
			r.Recovery.Acknowledged, r.Recovery.MeanSeconds, r.Recovery.MaxSeconds, r.Recovery.Unacknowledged)
	}
	summaryTail(&b, r.SLOs, r.Violations, r.Obs)
	return b.String()
}

// summaryTail renders the lines every summary ends with: SLO outcomes
// (naming the rule's job in fleet mode), the invariant verdict and the
// observed run's histograms.
func summaryTail(b *strings.Builder, slos []obs.SLOResult, violations []string, snap *obs.Snap) {
	for _, s := range slos {
		status := "OK"
		if !s.OK {
			status = fmt.Sprintf("BREACHED %dx (worst %g)", s.Breaches, s.Worst)
		}
		mode := s.Mode
		if s.Job != "" {
			mode += ", job " + s.Job
		}
		fmt.Fprintf(b, "slo %-24s %s [%s] — %s\n", s.Name+":", s.Expr, mode, status)
	}
	if len(violations) == 0 {
		b.WriteString("invariants: OK\n")
	} else {
		fmt.Fprintf(b, "invariants: %d VIOLATIONS\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(b, "  - %s\n", v)
		}
	}
	if snap != nil && len(snap.Histograms) > 0 {
		b.WriteString("obs:\n")
		b.WriteString(snap.Summary())
	}
}

// buildReport builds the report of one job's run record. name is the
// scenario name for a single job, "<scenario>/<job>" for a fleet
// tenant; skipped counts the scripted events dropped for want of a
// victim.
func buildReport(c *compiled, name string, jr fleet.JobResult, skipped int) *Report {
	r := &Report{
		Scenario:      name,
		Version:       Version,
		Description:   c.Scenario.Description,
		HorizonHours:  simtime.Time(c.Horizon).Hours(),
		MarketEvents:  len(jr.Events),
		ScriptEvents:  c.ScriptEvents,
		SkippedEvents: skipped,
		TimelineLen:   len(jr.Points),
		Stats:         jr.Stats,
		Violations:    []string{},
	}
	if c.Horizon > 0 {
		r.DowntimeFrac = jr.Stats.Downtime.Seconds() / c.Horizon.Seconds()
	}
	r.Recovery = recoveryStats(jr.Events, jr.Points, c.met)
	r.Violations = append(r.Violations, checkInvariants(jr.Points, jr.Stats)...)
	return r
}

// recoveryStats measures, for each preemption instant the trace
// delivered, the latency until the manager's next decision point
// (morph, replacement, hold, or declaring the fleet down). Each
// acknowledged latency is additionally observed into met (nil-safe)
// as the "manager.recovery_us" histogram.
func recoveryStats(events []spot.Event, points []manager.TimelinePoint, met *obs.Metrics) RecoveryStats {
	decision := func(e string) bool {
		return e == "morph" || e == "p" || e == "hold" || e == "down"
	}
	var rs RecoveryStats
	var sum float64
	pi := 0
	lastAt := simtime.Time(-1)
	for _, ev := range events {
		if ev.Kind != spot.Preempt || ev.At == lastAt {
			continue // one recovery per instant: a burst is one decision
		}
		lastAt = ev.At
		for pi < len(points) && (points[pi].At < ev.At || !decision(points[pi].Event)) {
			pi++
		}
		if pi >= len(points) {
			rs.Unacknowledged++
			continue
		}
		lat := points[pi].At.Sub(ev.At).Seconds()
		met.Observe("manager.recovery_us", float64(points[pi].At.Sub(ev.At)))
		rs.Acknowledged++
		sum += lat
		if lat > rs.MaxSeconds {
			rs.MaxSeconds = lat
		}
	}
	if rs.Acknowledged > 0 {
		rs.MeanSeconds = sum / float64(rs.Acknowledged)
	}
	return rs
}

// checkInvariants verifies the robustness properties every run must
// hold, whatever the scenario throws at the manager: a monotone
// clock, monotone cumulative spend whose buckets sum to the total (no
// double billing, no lost billing), and non-negative progress
// counters (no lost progress beyond what rollbacks account).
func checkInvariants(points []manager.TimelinePoint, stats manager.Stats) []string {
	var out []string
	prevAt := simtime.Time(0)
	prevDollars := 0.0
	for i, p := range points {
		if p.At < prevAt {
			out = append(out, fmt.Sprintf("clock ran backwards at point %d: %v < %v", i, p.At, prevAt))
		}
		prevAt = p.At
		if p.DollarsSpent < prevDollars-1e-9 {
			out = append(out, fmt.Sprintf("cumulative dollars shrank at point %d: %.9f < %.9f", i, p.DollarsSpent, prevDollars))
		}
		if p.DollarsSpent > prevDollars {
			prevDollars = p.DollarsSpent
		}
	}
	if stats.DollarsSpent < prevDollars-1e-9 {
		out = append(out, fmt.Sprintf("final bill %.9f below last timeline point %.9f", stats.DollarsSpent, prevDollars))
	}
	bucketSum := stats.DollarsCompute + stats.DollarsReconfig + stats.DollarsIdle
	if diff := math.Abs(bucketSum - stats.DollarsSpent); diff > 1e-6*math.Max(1, stats.DollarsSpent) {
		out = append(out, fmt.Sprintf("dollar buckets sum to %.9f but total is %.9f (double/lost billing)", bucketSum, stats.DollarsSpent))
	}
	if stats.Examples < 0 || stats.MiniBatches < 0 || stats.LostMiniBatches < 0 {
		out = append(out, fmt.Sprintf("negative progress counters: %.0f examples, %d mini-batches, %d lost",
			stats.Examples, stats.MiniBatches, stats.LostMiniBatches))
	}
	if stats.MorphDowntime+stats.FailoverDowntime > stats.Downtime || stats.Downtime < 0 {
		out = append(out, fmt.Sprintf("downtime accounting inconsistent: %v reconfiguration + %v failover > %v total",
			stats.MorphDowntime, stats.FailoverDowntime, stats.Downtime))
	}
	if stats.MiniBatches > 0 && stats.Examples <= 0 {
		out = append(out, "mini-batches completed but no examples counted (lost progress)")
	}
	if stats.UnrecoverableOutages > 0 {
		out = append(out, fmt.Sprintf("lost progress: %d domain outage(s) destroyed every checkpoint replica (%d mini-batches discarded)",
			stats.UnrecoverableOutages, stats.LostMiniBatches))
	}
	return out
}

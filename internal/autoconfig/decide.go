package autoconfig

import (
	"repro/internal/restart"
	"repro/internal/simtime"
)

// Horizon is the spot-derived forecast a morph-or-hold decision
// discounts throughput gains over: how long until the next fleet
// event, and whether that event is expected to be another preemption
// (spot.GapEstimator.NextKind). The kind matters because a predicted
// preemption ends the stable window with a forced restart that
// re-prices everything anyway — and preemptions cluster when the
// provider reclaims capacity, so the pooled EWMA gap overstates the
// window a voluntary morph's gain can amortize over.
type Horizon struct {
	// Until is the expected time to the next fleet event.
	Until simtime.Duration
	// PreemptNext marks the next expected event as a preemption.
	PreemptNext bool
	// HoldDiscount is the fraction of the post-downtime gain window a
	// PreemptNext decision still credits, calibrated from the per-kind
	// hazard ratio: gap_preempt / (gap_preempt + gap_alloc), i.e. the
	// probability that the next fleet event is an allocation rather
	// than the forecast preemption. When preemptions dominate the
	// event stream (a reclaim burst) the window is discounted harder
	// than the symmetric case; when the tracks are balanced it equals
	// the legacy fixed ½. Zero means "uncalibrated" and falls back to
	// that fixed ½ — the prior before both kind tracks have observed
	// gaps.
	HoldDiscount float64
}

// discounted applies the preempt-next discount to a usable gain
// window: the calibrated per-kind hazard ratio when available, the
// legacy fixed ½ otherwise.
func (hz Horizon) discounted(usable simtime.Duration) simtime.Duration {
	if !hz.PreemptNext {
		return usable
	}
	if hz.HoldDiscount > 0 {
		return simtime.Duration(float64(usable) * hz.HoldDiscount)
	}
	return usable / 2
}

// MorphDecision is the outcome of a cost-aware BestOrHold evaluation:
// either reconfigure to Choice and pay Costs of downtime, or hold the
// current configuration because the morph would not pay for itself
// before the fleet likely changes again.
type MorphDecision struct {
	// Morph reports whether reconfiguring beats holding.
	Morph bool
	// Choice is the sweep's best configuration for the new fleet (the
	// would-be target even when holding).
	Choice Choice
	// Costs is the modeled downtime of moving to Choice.
	Costs restart.Costs
	// GainPerSec is the steady-state throughput delta of Choice over
	// the held configuration (examples/s; <= 0 always holds).
	GainPerSec float64
	// Horizon is the expected time until the next fleet event the
	// decision discounted the gain over.
	Horizon simtime.Duration
	// PreemptNext records whether the decision treated the next fleet
	// event as a likely preemption (and so discounted the gain window).
	PreemptNext bool
	// MorphCostPerEx and HoldCostPerEx are the dollars-per-example of
	// the two paths over the decision window, filled only by the
	// dollar objectives when both paths produce examples — the
	// quantities the decision compared.
	MorphCostPerEx, HoldCostPerEx float64
}

// BestOrHold is the cost-aware variant of Best: given the currently
// running configuration, a reconfiguration-cost model and the expected
// time until the next fleet event (spot-derived), it decides whether
// morphing to the objective's choice for g GPUs (BestFor) pays for
// itself before the fleet likely changes again. A job that is not
// running always morphs, as does one whose current shape no longer
// fits the fleet; a same-shape target always holds. The underlying
// sweep is memoized as usual, so the added decision work is
// arithmetic, not simulation.
//
// Under ObjMaxThroughput the trade is examples: morphing forfeits
// cur's throughput for the modeled downtime, then earns the throughput
// gain only over whatever remains of the expected stable window. Hold
// when
//
//	gain × max(0, horizon − downtime)  ≤  cur_throughput × downtime
//
// i.e. when modeled downtime exceeds the discounted steady-state gain.
// When the forecast expects the next fleet event to be another
// preemption (hz.PreemptNext), the post-downtime gain window is
// additionally discounted before the comparison — a preemption forces
// a restart that re-prices the configuration anyway, and preemption
// bursts make the EWMA gap an overestimate of the remaining window —
// so marginal morphs hold. The discount is hz.HoldDiscount, the
// calibrated hazard-ratio fraction (falling back to ½ while
// uncalibrated; see Horizon).
//
// The dollar objectives settle morph-vs-hold by dollar *surplus* over
// the expected stable window, valuing each example at marginalSlack ×
// the job's baseline mean-price $/example — the same yardstick
// BestFor's marginal admission rule uses, so the switch decision
// cannot contradict the selection (raw $/example comparison would
// ratchet: a grown fleet always costs more per example than the
// efficient core, so the fleet would shrink once and never re-grow
// when the price reverts). Morphing pays the downtime at the current
// price for the union fleet (old and new capacity overlap while state
// moves), then accrues the target's surplus over the preempt-discounted
// remainder; holding accrues the current configuration's surplus with
// no downtime. A deadline objective additionally forces the morph when
// the held configuration is too slow for the remaining time but the
// target is fast enough.
func (pl *Planner) BestOrHold(g int, cur Choice, running bool, rm *restart.Model, hz Horizon, dirty bool, obj Objective, ec Econ) (MorphDecision, error) {
	best, baseline, err := pl.bestForEcon(g, obj, ec)
	if err != nil {
		return MorphDecision{}, err
	}
	dec := MorphDecision{Choice: best, Horizon: hz.Until, PreemptNext: hz.PreemptNext}
	if !running || rm == nil {
		dec.Morph = true
		if rm != nil {
			dec.Costs = rm.Price(restart.Assignment{}, assignmentOf(best), false)
		}
		return dec, nil
	}
	dec.Costs = rm.Price(assignmentOf(cur), assignmentOf(best), dirty)
	dec.GainPerSec = best.TotalExPerSec() - cur.TotalExPerSec()
	if cur.GPUsUsed > g {
		// The running shape no longer fits the fleet: forced morph.
		dec.Morph = true
		return dec, nil
	}
	if best.P == cur.P && best.D == cur.D {
		// Same shape: nothing to gain from a voluntary restart.
		return dec, nil
	}
	down := dec.Costs.Total()
	usable := hz.discounted(max(0, hz.Until-down))
	if obj.Kind == ObjMaxThroughput {
		if dec.GainPerSec <= 0 {
			return dec, nil
		}
		earned := dec.GainPerSec * usable.Seconds()
		forfeited := cur.TotalExPerSec() * down.Seconds()
		dec.Morph = earned > forfeited
		return dec, nil
	}
	if required := requiredRate(obj, ec); required > 0 &&
		ec.EffectiveExPerSec(cur) < required && ec.EffectiveExPerSec(best) >= required {
		// Holding forfeits the deadline; the target keeps it.
		dec.Morph = true
		return dec, nil
	}
	rate := ec.PerGPUHour / 3600 // $/GPU·s
	exMorph := ec.EffectiveExPerSec(best) * usable.Seconds()
	exHold := ec.EffectiveExPerSec(cur) * hz.Until.Seconds()
	union := max(cur.GPUsUsed, best.GPUsUsed)
	morphDollars := rate * (float64(union)*down.Seconds() + float64(best.GPUsUsed)*usable.Seconds())
	holdDollars := rate * float64(cur.GPUsUsed) * hz.Until.Seconds()
	if exMorph > 0 {
		dec.MorphCostPerEx = morphDollars / exMorph
	}
	if exHold > 0 {
		dec.HoldCostPerEx = holdDollars / exHold
	}
	value := marginalSlack * baseline
	dec.Morph = value*exMorph-morphDollars > value*exHold-holdDollars
	return dec, nil
}

// assignmentOf converts a sweep choice into the restart model's
// costing terms.
func assignmentOf(c Choice) restart.Assignment {
	return restart.Assignment{Stages: c.Stages, D: c.D}
}

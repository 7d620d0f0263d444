package autoconfig

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// ObjectiveKind selects what a morph decision optimizes.
type ObjectiveKind int

const (
	// ObjMaxThroughput maximizes examples per second — the paper's
	// §4.4 decision rule and the default (zero value), preserving
	// today's behavior exactly.
	ObjMaxThroughput ObjectiveKind = iota
	// ObjMinDollarPerExample minimizes spot dollars per training
	// example: idle capacity is released, and marginal replicas that
	// no longer earn their keep at the current price are shed — the
	// fleet shrinks through price spikes and regrows when the price
	// reverts.
	ObjMinDollarPerExample
	// ObjDeadline finishes a target example count by a wall-clock
	// deadline as cheaply as possible: the cheapest configuration
	// whose throughput still meets the required rate wins; when the
	// job is ahead of schedule it saves dollars, when behind it runs
	// flat out.
	ObjDeadline
)

// String names the kind.
func (k ObjectiveKind) String() string {
	switch k {
	case ObjMaxThroughput:
		return "max-throughput"
	case ObjMinDollarPerExample:
		return "min-dollar-per-example"
	case ObjDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// Objective is the optimization target of the cost-aware decision
// stack. The zero value is ObjMaxThroughput with no deadline —
// bit-identical to the pre-dollar decision rule.
type Objective struct {
	// Kind selects the target.
	Kind ObjectiveKind
	// DeadlineAt and TargetExamples parameterize ObjDeadline: process
	// TargetExamples examples by DeadlineAt.
	DeadlineAt     simtime.Time
	TargetExamples float64
}

// Shrinks reports whether the objective voluntarily releases fleet
// capacity the chosen configuration does not use. Throughput
// maximization never does (idle VMs are free under its accounting);
// the dollar objectives always do (idle VMs cost money and buy
// nothing).
func (o Objective) Shrinks() bool { return o.Kind != ObjMaxThroughput }

// RetainGPUs is how much fleet a shrink objective keeps when the
// chosen configuration uses choiceGPUs: exactly that for
// min-$/example, but 1.5× while a deadline is live. Released spot
// capacity is a one-way door — the provider may never grant it back
// — so a deadline objective holds schedule insurance: slack that
// absorbs preemptions and lets the configuration scale up when the
// required rate rises, paid for as idle spend while it waits. Once
// the target is met the insurance is dropped and min-dollar
// economics take over.
func (o Objective) RetainGPUs(choiceGPUs int, ec Econ) int {
	if o.Kind == ObjDeadline && requiredRate(o, ec) > 0 {
		return choiceGPUs + (choiceGPUs+1)/2
	}
	return choiceGPUs
}

// Validate sanity-checks the objective.
func (o Objective) Validate() error {
	switch o.Kind {
	case ObjMaxThroughput, ObjMinDollarPerExample:
		return nil
	case ObjDeadline:
		if o.DeadlineAt <= 0 || o.TargetExamples <= 0 {
			return fmt.Errorf("autoconfig: deadline objective needs DeadlineAt and TargetExamples")
		}
		return nil
	default:
		return fmt.Errorf("autoconfig: unknown objective kind %d", int(o.Kind))
	}
}

// Econ is the economic context of one decision: where the spot price
// is now, where it sits in the long run, and how far the job has
// progressed (for deadline objectives). All fields are observations,
// not knobs — the manager fills them from the price curve and its own
// counters at each fleet event.
type Econ struct {
	// PerGPUHour is the spot price at decision time.
	PerGPUHour float64
	// MeanPerGPUHour is the curve's long-run mean — the reference an
	// example produced *later* would be priced at. The ratio
	// PerGPUHour/MeanPerGPUHour is what makes marginal replicas
	// uneconomical during a spike.
	MeanPerGPUHour float64
	// Now is the decision instant.
	Now simtime.Time
	// DoneExamples is the job's cumulative progress.
	DoneExamples float64
	// PreemptEvery is the observed gap between preemption events
	// (spot.GapEstimator.ExpectedOf(Preempt)); zero when none have
	// been observed. Together with CheckpointEvery it discounts each
	// candidate's nameplate throughput by expected rollback loss —
	// slow configurations stretch the checkpoint interval, so a
	// preemption costs them disproportionately more work.
	PreemptEvery simtime.Duration
	// CheckpointEvery is the manager's checkpoint cadence in
	// mini-batches (zero disables the rollback discount).
	CheckpointEvery int
}

// EffectiveExPerSec discounts a candidate's nameplate throughput by
// the rollback work an expected preemption cadence destroys: on
// average half a checkpoint interval (CheckpointEvery/2 mini-batches
// of Est each) is lost per preemption window of PreemptEvery. A
// 230 ex/s full-fleet configuration loses ~10% to a 20-minute
// preemption cadence; a 30 ex/s shrunken one loses half — the
// fragility that makes "cheap and slow" a false economy on a bursty
// fleet. Nameplate when no hazard has been observed.
func (ec Econ) EffectiveExPerSec(c Choice) float64 {
	ex := c.TotalExPerSec()
	if ec.PreemptEvery <= 0 || ec.CheckpointEvery <= 0 || ex <= 0 || c.Est <= 0 {
		return ex
	}
	loss := float64(c.Est) * float64(ec.CheckpointEvery) / 2
	window := float64(ec.PreemptEvery)
	return ex * window / (window + loss)
}

// marginalSlack tolerates marginal capacity up to this factor above
// the job's best achievable mean-price $/example before the
// min-dollar objective sheds it. The 2.5B ladder on 150 GPUs puts
// the marginal $-per-extra-example of growing from the GPU-efficient
// core to the (quantized) full fleet at ~1.2–1.6× the baseline, so
// 1.5 keeps most of the fleet at or below mean price while a
// moderate spike (≥ ~1.3×) walks it back down — shrink is a response
// to price excursions, not a permanent opt-out of capacity.
const marginalSlack = 1.5

// shrinkLevels are the fleet fractions whose sweeps seed the shrink
// candidate set (see candidatesFor).
var shrinkLevels = [...]struct{ num, den int }{{1, 1}, {3, 4}, {1, 2}, {1, 4}}

// candidatesFor assembles the candidate set of a dollar-aware
// decision. A single Sweep(g) mostly yields shapes that use nearly
// the whole fleet (for every D the deepest feasible P dominates at
// that D), so it offers little room to *shrink*; sweeping a few
// smaller fleet levels too gives the objective real exit points when
// the price makes capacity uneconomical. Levels that don't fit the
// model are skipped; duplicates (the same P×D reappears across
// levels) keep their first, identical evaluation. All sweeps run
// through the Planner's lifetime caches, so the added levels are
// cheap arithmetic on a warm planner. The sweep function seam lets
// tests run the same assembly over a reference sweep.
func candidatesFor(g int, sweep func(int) ([]Choice, error)) ([]Choice, error) {
	seen := make(map[[2]int]bool)
	var out []Choice
	var firstErr error
	for _, lv := range shrinkLevels {
		lg := g * lv.num / lv.den
		if lg < 1 {
			continue
		}
		cands, err := sweep(lg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, c := range cands {
			key := [2]int{c.P, c.D}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		if firstErr == nil {
			// g = 0 skips every shrink level before a sweep can even
			// run: surface the same dead-fleet error Sweep(0) would.
			firstErr = fmt.Errorf("autoconfig: no GPUs")
		}
		return nil, firstErr
	}
	// Deterministic walk order: ascending throughput, ties broken
	// toward fewer GPUs then shallower pipelines.
	sortChoices(out)
	return out, nil
}

// sortChoices orders candidates by ascending throughput (GPUs, then
// P, as tiebreaks) — the order the marginal-economics walk climbs.
func sortChoices(cs []Choice) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lessChoice(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func lessChoice(a, b Choice) bool {
	ae, be := a.TotalExPerSec(), b.TotalExPerSec()
	if ae != be {
		return ae < be
	}
	if a.GPUsUsed != b.GPUsUsed {
		return a.GPUsUsed < b.GPUsUsed
	}
	return a.P < b.P
}

// minDollarChoice selects the configuration minimizing dollars per
// example at the current price, SWARM-style marginal economics: start
// from the most GPU-efficient shape (the best $/example regardless of
// price level, since a uniform price scales every candidate equally),
// then keep adding capacity while each marginal step's
// $-per-additional-example stays within marginalSlack of the job's
// best achievable mean-price $/example. At mean price the full fleet
// passes; when the price spikes, the same marginal replicas price
// above the mean-price baseline and the choice walks back down — the
// shrink the objective exists for.
// baselineCost reports the job's best achievable mean-price
// $/example across the candidate set (+Inf when nothing produces),
// and the index achieving it. This is the reference the marginal
// admission rule and the hold-vs-morph surplus valuation both price
// against — one yardstick, so selection and switching decisions
// cannot contradict each other.
func baselineCost(cands []Choice, ec Econ) (int, float64) {
	meanRate := ec.MeanPerGPUHour
	if meanRate <= 0 {
		meanRate = ec.PerGPUHour
	}
	best, cost := -1, math.Inf(1)
	for i, c := range cands {
		ex := ec.EffectiveExPerSec(c)
		if ex <= 0 {
			continue
		}
		sigma := meanRate * float64(c.GPUsUsed) / (3600 * ex)
		if best < 0 || sigma < cost {
			best, cost = i, sigma
		}
	}
	return best, cost
}

func minDollarChoice(cands []Choice, ec Econ) Choice {
	meanRate := ec.MeanPerGPUHour
	if meanRate <= 0 {
		meanRate = ec.PerGPUHour
	}
	rate := ec.PerGPUHour
	if rate <= 0 {
		rate = meanRate
	}
	// Most GPU-efficient candidate: argmin GPUs/ex (price-invariant).
	start, baseline := baselineCost(cands, ec)
	if start < 0 {
		return cands[len(cands)-1]
	}
	chosen := cands[start]
	for _, c := range cands {
		ex, chEx := ec.EffectiveExPerSec(c), ec.EffectiveExPerSec(chosen)
		if ex <= chEx {
			continue
		}
		if c.GPUsUsed <= chosen.GPUsUsed {
			chosen = c // more throughput from no more GPUs: dominates
			continue
		}
		marginal := rate * float64(c.GPUsUsed-chosen.GPUsUsed) / (3600 * (ex - chEx))
		if marginal <= marginalSlack*baseline {
			chosen = c
		}
	}
	return chosen
}

// requiredRate reports the throughput (examples/s) a deadline
// objective needs from here on, with a 50% safety margin. The
// margin covers everything the per-candidate rollback discount
// cannot see — reconfiguration downtime, straggler exclusions, the
// cold ramp while the fleet assembles, and holds that keep a slower
// shape running — which together routinely eat a quarter of
// nameplate pace on a bursty fleet; a deadline missed narrowly is
// still missed. Zero when the target is already met or no deadline
// applies.
func requiredRate(obj Objective, ec Econ) float64 {
	if obj.Kind != ObjDeadline {
		return 0
	}
	remaining := obj.TargetExamples - ec.DoneExamples
	left := obj.DeadlineAt.Sub(ec.Now).Seconds()
	if remaining <= 0 || left <= 0 {
		return 0
	}
	return 1.5 * remaining / left
}

// deadlineHeadroom is the throughput buffer a deadline selection
// keeps over the required rate. Spot reality eats into nameplate
// throughput — preemption rollbacks, reconfiguration downtime, and
// the one-way nature of released capacity (a replayed trace cannot
// re-grant a VM the job gave back) — so running at exactly the
// required rate converts every hiccup into schedule slip that
// released VMs can no longer absorb. 2× keeps the selection cheap
// when comfortably ahead and snaps back to flat-out the moment the
// margin thins.
const deadlineHeadroom = 2.0

// deadlineChoice picks the cheapest configuration whose throughput
// clears the required rate with deadlineHeadroom to spare: the
// fewest paid GPUs among candidates fast enough (ties to the higher
// throughput). With no candidate that comfortable — behind schedule,
// or a deadline near the wire — it runs flat out. Once the target is
// met (required zero) it defers to min-dollar selection: bonus
// examples should be cheap ones.
func deadlineChoice(cands []Choice, obj Objective, ec Econ) Choice {
	required := requiredRate(obj, ec)
	if required <= 0 {
		return minDollarChoice(cands, ec)
	}
	need := deadlineHeadroom * required
	best := -1
	for i, c := range cands {
		if ec.EffectiveExPerSec(c) < need {
			continue
		}
		if best < 0 ||
			c.GPUsUsed < cands[best].GPUsUsed ||
			(c.GPUsUsed == cands[best].GPUsUsed && c.TotalExPerSec() > cands[best].TotalExPerSec()) {
			best = i
		}
	}
	if best >= 0 {
		return cands[best]
	}
	// No candidate clears the margin: best effort, maximum effective
	// throughput.
	top := cands[0]
	for _, c := range cands[1:] {
		if ec.EffectiveExPerSec(c) > ec.EffectiveExPerSec(top) {
			top = c
		}
	}
	return top
}

// BestFor is the objective-aware Best: the target configuration for g
// GPUs under obj and the economic context ec. ObjMaxThroughput
// delegates to the memoized Best(g) (identical decisions, identical
// caching); the dollar objectives select over the shrink-augmented
// candidate set and are not memoized per fleet size — the right
// answer moves with the price — but every underlying evaluation still
// comes from the lifetime cost cache.
func (pl *Planner) BestFor(g int, obj Objective, ec Econ) (Choice, error) {
	c, _, err := pl.bestForEcon(g, obj, ec)
	return c, err
}

// bestForEcon is BestFor plus the candidate set's baseline mean-price
// $/example — the example valuation the hold-vs-morph surplus
// comparison prices against (zero for max throughput, which doesn't
// trade in dollars).
func (pl *Planner) bestForEcon(g int, obj Objective, ec Econ) (Choice, float64, error) {
	switch obj.Kind {
	case ObjMinDollarPerExample, ObjDeadline:
	default:
		c, err := pl.Best(g)
		return c, 0, err
	}
	cands, err := candidatesFor(g, pl.Sweep)
	if err != nil {
		return Choice{}, 0, err
	}
	c, baseline := selectFor(cands, obj, ec)
	return c, baseline, nil
}

// selectFor applies a dollar objective to its candidate set.
func selectFor(cands []Choice, obj Objective, ec Econ) (Choice, float64) {
	_, baseline := baselineCost(cands, ec)
	if math.IsInf(baseline, 1) {
		baseline = 0
	}
	if obj.Kind == ObjDeadline {
		return deadlineChoice(cands, obj, ec), baseline
	}
	return minDollarChoice(cands, ec), baseline
}

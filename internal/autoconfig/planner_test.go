package autoconfig

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/restart"
	"repro/internal/simtime"
)

// TestPlannerSecondSweepGolden is the acceptance test for the
// cross-sweep cache: a second sweep of the same fleet must return
// Choices bit-identical to the first — and to the stateless Sweep —
// while performing zero StageCosts assemblies and zero anchor
// simulations.
func TestPlannerSecondSweepGolden(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)

	stateless, err := Sweep(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Sweep(100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stateless, first) {
		t.Fatalf("planner sweep diverged from stateless sweep\nstateless: %+v\nplanner:   %+v", stateless, first)
	}
	s1 := pl.Stats()
	if s1.CostMisses == 0 || s1.CostComputes == 0 || s1.SimAnchorRuns == 0 {
		t.Fatalf("cold sweep must compute: %+v", s1)
	}
	if s1.CostHits != 0 {
		t.Fatalf("cold sweep cannot hit, got %d hits", s1.CostHits)
	}

	second, err := pl.Sweep(100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second sweep diverged\nfirst:  %+v\nsecond: %+v", first, second)
	}
	s2 := pl.Stats()
	if s2.CostComputes != s1.CostComputes {
		t.Fatalf("second sweep recomputed StageCosts: %d → %d", s1.CostComputes, s2.CostComputes)
	}
	if s2.SimAnchorRuns != s1.SimAnchorRuns {
		t.Fatalf("second sweep re-ran anchor simulations: %d → %d", s1.SimAnchorRuns, s2.SimAnchorRuns)
	}
	if s2.CostHits == 0 {
		t.Fatal("second sweep must be served from the cache")
	}
	if s2.HitRate() <= 0 || s2.HitRate() >= 1 {
		t.Fatalf("hit rate %.2f outside (0,1) after one cold + one warm sweep", s2.HitRate())
	}
}

// TestPlannerSweepsShareAcrossFleetSizes checks the morphing-timeline
// payoff: sweeps at different (but overlapping) fleet sizes share
// candidates, so later sweeps hit keys the earlier ones populated.
func TestPlannerSweepsShareAcrossFleetSizes(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	for _, g := range []int{100, 100, 96, 100, 96} {
		want, err := Sweep(in, g)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		got, err := pl.Sweep(g)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("G=%d: planner sweep diverged from stateless sweep", g)
		}
	}
	s := pl.Stats()
	if s.CostHits == 0 {
		t.Fatalf("repeated fleet sizes must hit the cache: %+v", s)
	}
	// Unique work is bounded by the number of distinct keys, not the
	// number of sweeps: the two fleet sizes were each swept at least
	// twice, so under half of all lookups may have computed anything.
	if s.CostMisses >= s.CostHits {
		t.Fatalf("misses %d should be the minority across repeated sweeps (hits %d)", s.CostMisses, s.CostHits)
	}
}

// TestPlannerBestMemoized pins the decision memo: a revisited fleet
// size replays the stored choice without another sweep.
func TestPlannerBestMemoized(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	want, err := Best(in, 72)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pl.Best(72)
	if err != nil {
		t.Fatal(err)
	}
	sweepsAfterFirst := pl.Stats().Sweeps
	b, err := pl.Best(72)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, a) || !reflect.DeepEqual(a, b) {
		t.Fatalf("memoized Best diverged: stateless %+v, first %+v, second %+v", want, a, b)
	}
	s := pl.Stats()
	if s.Sweeps != sweepsAfterFirst {
		t.Fatalf("second Best swept again: %d → %d sweeps", sweepsAfterFirst, s.Sweeps)
	}
	if s.DecisionHits != 1 || s.DecisionMisses != 1 {
		t.Fatalf("decision memo counters off: %+v", s)
	}

	// Sticky infeasibility: a fleet too small for the model fails the
	// same way from the memo.
	if _, err := pl.Best(2); err == nil {
		t.Fatal("2 GPUs cannot fit 2.5B")
	}
	if _, err := pl.Best(2); err == nil {
		t.Fatal("memoized infeasibility must still fail")
	}
}

// TestPlannerInvalidatesOnSpecChange is the cache-invalidation test:
// repointing the Planner at a different job drops every cached cost
// and decision, and the next sweep recomputes from scratch —
// identical to a cold Planner for the new spec.
func TestPlannerInvalidatesOnSpecChange(t *testing.T) {
	inA := inputsFor(t, model.GPT2XL2B(), 53)
	inB := inputsFor(t, model.GPT2Megatron8B(), 71)
	pl := NewPlanner(inA)
	if _, err := pl.Sweep(100); err != nil {
		t.Fatal(err)
	}
	if warm := pl.Stats(); warm.CostComputes == 0 {
		t.Fatalf("warm-up sweep computed nothing: %+v", warm)
	}

	pl.SetInputs(inB)
	if got := pl.Stats(); got.Invalidations != 1 {
		t.Fatalf("spec change must invalidate, stats %+v", got)
	}
	got, err := pl.Sweep(128)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sweep(inB, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-invalidation sweep diverged from a cold sweep of the new spec")
	}
	s := pl.Stats()
	if s.CostComputes == 0 || s.CostMisses == 0 {
		t.Fatalf("post-invalidation sweep must recompute: %+v", s)
	}
	if s.CostHits != 0 {
		t.Fatalf("invalidated cache cannot hit (counters reset with it): %+v", s)
	}

	// Re-setting identical inputs must NOT invalidate.
	pl.SetInputs(inB)
	if got := pl.Stats(); got.Invalidations != 1 {
		t.Fatalf("identical inputs must not invalidate, stats %+v", got)
	}

	// Changing only the cut-points (same spec) MUST invalidate: cached
	// stages — and hence costs and estimates — depend on the cuts.
	rec := inB
	rec.Cuts = append([]model.CutPoint(nil), inB.Cuts[:len(inB.Cuts)-1]...)
	pl.SetInputs(rec)
	if got := pl.Stats(); got.Invalidations != 2 {
		t.Fatalf("cut-point change must invalidate, stats %+v", got)
	}
}

// TestPlannerCappedBitIdentical pins the eviction soundness argument:
// a Planner with pathologically small cache bounds recomputes more but
// returns exactly the choices an unbounded one does, across a sequence
// of fleet sizes that forces constant generation rotation.
func TestPlannerCappedBitIdentical(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	free := NewPlannerCapped(in, 0, 0)
	tight := NewPlannerCapped(in, 3, 2)
	sizes := []int{100, 72, 96, 100, 48, 72, 100, 96}
	for _, g := range sizes {
		want, err := free.Best(g)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		got, err := tight.Best(g)
		if err != nil {
			t.Fatalf("G=%d capped: %v", g, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("G=%d: capped planner diverged\nwant %+v\ngot  %+v", g, want, got)
		}
	}
	ts := tight.Stats()
	if ts.CostEvictions == 0 && ts.DecisionEvictions == 0 {
		t.Fatalf("cap of 3 cost keys / 2 decisions must rotate over %d sizes: %+v", len(sizes), ts)
	}
	if fs := free.Stats(); fs.CostEvictions != 0 || fs.DecisionEvictions != 0 {
		t.Fatalf("unbounded planner evicted: %+v", fs)
	}
}

// restartModelFor builds a restart cost model matching the test
// cluster.
func restartModelFor(in Inputs) *restart.Model {
	return restart.NewModel(in.Spec, hw.SpotCluster(hw.NC6v3, 300))
}

// TestBestOrHoldColdStartMorphs: with nothing running there is nothing
// to hold.
func TestBestOrHoldColdStartMorphs(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	dec, err := pl.BestOrHold(100, Choice{}, false, restartModelFor(in), Horizon{Until: simtime.Hour}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Morph {
		t.Fatal("cold start must morph")
	}
	want, err := pl.Best(100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Choice, want) {
		t.Fatal("cold-start choice must be Best(g)")
	}
	if dec.Costs.Redistribute == 0 || dec.Costs.Stop != 0 {
		t.Fatalf("cold start pays redistribution but no stop: %+v", dec.Costs)
	}
}

// TestBestOrHoldSameShapeHolds: when the sweep's best is the shape
// already running, a voluntary restart gains nothing.
func TestBestOrHoldSameShapeHolds(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	cur, err := pl.Best(100)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := pl.BestOrHold(100, cur, true, restartModelFor(in), Horizon{Until: simtime.Hour}, true, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Morph {
		t.Fatal("same-shape best must hold")
	}
}

// TestBestOrHoldWeighsHorizon is the economics test: the same
// (current, best) pair must morph when the fleet is expected to stay
// stable long enough to amortize the downtime, and hold when the next
// fleet event is imminent.
func TestBestOrHoldWeighsHorizon(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	best, err := pl.Best(100)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately slower running shape at the same fleet size.
	var cur Choice
	found := false
	sweep, err := pl.Sweep(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sweep {
		if c.P != best.P && c.TotalExPerSec() < best.TotalExPerSec() {
			cur, found = c, true
			break
		}
	}
	if !found {
		t.Skip("sweep produced no slower alternative to contrast")
	}
	rm := restartModelFor(in)
	long, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: 24 * simtime.Hour}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !long.Morph {
		t.Fatalf("a 24h stable window must justify %v of downtime for +%.1f ex/s", long.Costs.Total(), long.GainPerSec)
	}
	down := long.Costs.Total()
	short, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: down / 2}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if short.Morph {
		t.Fatalf("a window shorter than the %v downtime must hold", down)
	}
	if short.GainPerSec != long.GainPerSec || short.Costs != long.Costs {
		t.Fatal("pricing must not depend on the horizon")
	}
}

// BenchmarkPlannerRepeatSweep measures the acceptance scenario: two
// consecutive G=128 sweeps of the 8.3B model through one Planner. Each
// iteration builds a cold Planner, pays the full first sweep, then
// times how much the cached second sweep costs on top — the reported
// per-op time is one cold plus one warm sweep, to be read against
// BenchmarkSweepParallel (one cold sweep alone).
func BenchmarkPlannerRepeatSweep(b *testing.B) {
	in := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := NewPlanner(in)
		if _, err := pl.Sweep(128); err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Sweep(128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerWarmSweep isolates the warm path: every iteration is
// a fully cached G=128 sweep (the first, cold sweep happens before the
// timer starts).
func BenchmarkPlannerWarmSweep(b *testing.B) {
	in := benchInputs(b)
	pl := NewPlanner(in)
	if _, err := pl.Sweep(128); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Sweep(128); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBestOrHoldPreemptForecastHolds: the same marginal morph must go
// through when the next fleet event is expected to be an allocation,
// and hold when the forecast says another preemption is coming — the
// preempt forecast halves the gain window, so a morph that barely pays
// for itself no longer does.
func TestBestOrHoldPreemptForecastHolds(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	best, err := pl.Best(100)
	if err != nil {
		t.Fatal(err)
	}
	var cur Choice
	found := false
	sweep, err := pl.Sweep(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sweep {
		if c.P != best.P && c.TotalExPerSec() < best.TotalExPerSec() {
			cur, found = c, true
			break
		}
	}
	if !found {
		t.Skip("sweep produced no slower alternative to contrast")
	}
	rm := restartModelFor(in)
	probe, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: 24 * simtime.Hour}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Morph {
		t.Fatal("fixture must morph on a long stable window")
	}
	// A window where the morph barely pays for itself: the earned gain
	// sits at 1.5× the forfeited examples, inside (1×, 2×) so that
	// halving the gain window flips the decision.
	down := probe.Costs.Total()
	marginal := down + simtime.Duration(1.5*cur.TotalExPerSec()*down.Seconds()/probe.GainPerSec*float64(simtime.Second))
	calm, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: marginal}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !calm.Morph {
		t.Fatalf("marginal window %v must morph when no preemption is forecast", marginal)
	}
	if calm.PreemptNext {
		t.Fatal("decision must record PreemptNext = false")
	}
	stormy, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: marginal, PreemptNext: true}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if stormy.Morph {
		t.Fatalf("marginal window %v must hold when the next event is expected to be a preemption", marginal)
	}
	if !stormy.PreemptNext {
		t.Fatal("decision must record PreemptNext = true")
	}
	if stormy.Costs != calm.Costs || stormy.GainPerSec != calm.GainPerSec {
		t.Fatal("the forecast must change the decision, not the pricing")
	}
	// Forced paths ignore the forecast: a fleet the current shape no
	// longer fits morphs regardless.
	forced, err := pl.BestOrHold(cur.GPUsUsed-1, cur, true, rm, Horizon{Until: 0, PreemptNext: true}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatalf("BestOrHold(%d): %v", cur.GPUsUsed-1, err)
	}
	if !forced.Morph {
		t.Fatal("a fleet too small for the running shape must always morph")
	}
}

// Package autoconfig implements Varuna's job morphing (§4.2–§4.4): on
// every change in available GPUs it re-derives the best-performing
// (P, D, m, Nm) configuration by sweeping pipeline depths through the
// parametrized simulator, while keeping the user's global mini-batch
// size M_total fixed — the correctness-preserving property that lets a
// running job reshape without touching hyper-parameters. Gradient
// accumulation absorbs the slack: when fewer GPUs are available the
// per-GPU micro-batch count Nm grows instead of the learning dynamics
// changing.
package autoconfig

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/calibrate"
	"repro/internal/gen2"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Inputs is everything morphing needs that does not change with G.
type Inputs struct {
	// Spec is the model being trained.
	Spec *model.Spec
	// Cuts are the identified cut-points (§5.1).
	Cuts []model.CutPoint
	// Params is the one-time scale-invariant calibration (§4.3).
	Params *calibrate.Params
	// GPUMem is the per-device memory.
	GPUMem int64
	// MTotal is the user's global mini-batch size, invariant across
	// morphs (§4.2).
	MTotal int
	// GPUsPerNode drives placement: which stage boundaries cross
	// nodes and how many allreduces share a NIC.
	GPUsPerNode int
}

// Choice is one evaluated configuration — a point of the §4.4 sweep,
// written the way the paper writes Table 3 rows (P×D with its
// micro-batch choice and predicted mini-batch time).
type Choice struct {
	// P is pipeline depth, D data-parallel width.
	P, D int
	// M is the micro-batch size, Nm the micro-batches per replica.
	M, Nm int
	// Stages is the cut-point grouping for this depth.
	Stages []model.Stage
	// Est is the simulator's predicted mini-batch time.
	Est simtime.Duration
	// GPUsUsed is P·D (≤ G when G is not a multiple of P).
	GPUsUsed int
	// Examples is the effective mini-batch (m·Nm·D), kept as close to
	// MTotal as divisibility allows.
	Examples int
}

// TotalExPerSec is the configuration's whole-job throughput.
func (c Choice) TotalExPerSec() float64 {
	if c.Est <= 0 {
		return 0
	}
	return float64(c.Examples) / c.Est.Seconds()
}

// ExPerSecPerGPU normalizes throughput by GPUs used.
func (c Choice) ExPerSecPerGPU() float64 {
	if c.GPUsUsed == 0 {
		return 0
	}
	return c.TotalExPerSec() / float64(c.GPUsUsed)
}

// String renders the configuration the way the paper writes it (P×D).
func (c Choice) String() string {
	return fmt.Sprintf("%dx%d (m=%d, Nm=%d, est %v)", c.P, c.D, c.M, c.Nm, c.Est)
}

// GradAccum computes the micro-batch count that preserves M_total for a
// given micro-batch size and data-parallel width: Nm = ⌈M/(m·D)⌉. This
// is the §4.2 accumulation rule — shrinking resources grow Nm, never
// the hyper-parameters.
func GradAccum(mTotal, m, d int) int {
	nm := (mTotal + m*d - 1) / (m * d)
	if nm < 1 {
		nm = 1
	}
	return nm
}

// interFlags marks the stage boundaries that cross nodes when p stages
// are packed onto nodes of gpusPerNode GPUs.
func interFlags(p, gpusPerNode int) []bool {
	flags := make([]bool, p)
	for i := 0; i < p-1; i++ {
		flags[i] = gpusPerNode <= 1 || (i+1)%gpusPerNode == 0
	}
	return flags
}

// costCache memoizes the per-candidate simulation inputs and outputs
// keyed on (spec, p, m, d): the calibrate.Params.StageCosts slice and
// the anchor-simulation makespan estimate at the Nm that GradAccum
// derives for the key. Both are deterministic in the key (stages and
// boundary flags are functions of p; the estimate runs the simulator
// on mean parameters with no jitter), so workers can safely share
// cached values — the simulator never mutates cost slices.
//
// Within a single sweep the candidate generation dedupes by p and
// tries each m at most once per candidate, so every key is distinct
// and the cache never hits; the payoff is cross-sweep. A Planner keeps
// one costCache alive for the lifetime of a job, and the repeated
// sweeps of a Figure-8 morphing timeline revisit the same keys
// constantly: fleet sizes recur, and nearby fleet sizes share the
// deepest feasible depths.
//
// On a months-long job the key space grows without bound (one entry
// per unique (p, m, d)), so the cache is generation-bounded behind a
// gen2.Map: recently-touched keys always survive — segmented-LRU
// behavior without per-entry bookkeeping — and since every cached
// value is deterministic in its key, eviction can only cost
// recomputation, never change results.
type costCache struct {
	mu sync.Mutex
	m  *gen2.Map[costKey, *costEntry]

	hits, misses             atomic.Uint64
	costComputes, simAnchors atomic.Uint64
	pruned                   atomic.Uint64
}

// costKey scopes entries to the model being planned for: a Planner
// whose job switches specs (or a cache accidentally shared across
// jobs) can never serve one model's partition costs to another.
type costKey struct {
	spec    *model.Spec
	p, m, d int
}

// costEntry is one cached computation. nm records the micro-batch
// count the estimate was simulated at; a lookup with a different nm
// (possible only if M_total changed without an invalidation) reuses
// the costs but re-runs the estimate. A candidate the sweep pruned
// without simulating keeps its costs only (nm = 0, est = 0).
type costEntry struct {
	costs []sim.StageCosts
	nm    int
	est   simtime.Duration
}

func newCostCache(sizeHint int) *costCache { return newCostCacheCap(sizeHint, 0) }

// newCostCacheCap builds a cache bounded to cap keys per generation
// (cap <= 0 keeps the unbounded per-sweep behavior).
func newCostCacheCap(sizeHint, cap int) *costCache {
	return &costCache{m: gen2.New[costKey, *costEntry](cap, sizeHint)}
}

// lookup finds a key in either generation, promoting previous-generation
// hits into the current one.
func (c *costCache) lookup(key costKey) (*costEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Get(key)
}

// store inserts a freshly computed entry.
func (c *costCache) store(key costKey, e *costEntry) {
	c.mu.Lock()
	c.m.Put(key, e)
	c.mu.Unlock()
}

// evictions reports generation rotations (each drops the oldest
// generation's keys).
func (c *costCache) evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Rotations()
}

// snapshot returns every live entry (both generations, current wins),
// for state export.
func (c *costCache) snapshot() map[costKey]*costEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[costKey]*costEntry, c.m.Len())
	c.m.Each(func(k costKey, e *costEntry) { out[k] = e })
	return out
}

// stageCosts returns a candidate's cached entry (nil when absent) and
// its StageCosts, assembling them only on a miss. A nil receiver
// computes without caching (the Evaluate fast path).
func (c *costCache) stageCosts(in Inputs, stages []model.Stage, key costKey) (*costEntry, []sim.StageCosts, error) {
	var e *costEntry
	if c != nil {
		if e, _ = c.lookup(key); e != nil {
			return e, e.costs, nil
		}
	}
	costs, err := in.Params.StageCosts(in.Spec, stages, key.m, key.d, interFlags(key.p, in.GPUsPerNode))
	if err != nil {
		return nil, nil, err
	}
	if c != nil {
		c.costComputes.Add(1)
	}
	return nil, costs, nil
}

// estimate returns the simulated mini-batch time for one fully
// specified candidate: from its cached entry e when that was simulated
// at nm, else by simulation, caching the result. Two workers racing on
// the same fresh key duplicate the work but store identical values,
// which keeps the hot path free of per-key latches.
func (c *costCache) estimate(key costKey, e *costEntry, costs []sim.StageCosts, nm int) (simtime.Duration, error) {
	if c != nil && e != nil && e.nm == nm {
		c.hits.Add(1)
		return e.est, nil
	}
	if c != nil {
		c.misses.Add(1)
	}
	est, err := sim.EstimateMakespan(sim.Config{
		Depth:  key.p,
		Micros: nm,
		Policy: schedule.Varuna,
		Costs:  costs,
	})
	if err != nil || c == nil {
		return est, err
	}
	c.simAnchors.Add(1)
	c.store(key, &costEntry{costs: costs, nm: nm, est: est})
	return est, nil
}

// prune counts a candidate the sweep skipped on its makespan bound and
// keeps its costs, so a warm cache never assembles them again.
func (c *costCache) prune(key costKey, e *costEntry, costs []sim.StageCosts) {
	if c == nil {
		return
	}
	c.pruned.Add(1)
	if e == nil {
		c.store(key, &costEntry{costs: costs})
	}
}

// Evaluate builds and simulates a single (P, D) candidate, choosing the
// micro-batch size jointly: m trades kernel efficiency (bigger is
// better, §4.1) against pipeline efficiency (bigger m means fewer
// micro-batches and more bubble — constraint 3 of Figure 2). The
// fastest memory-feasible profiled size up to the kernel sweet spot
// wins.
func Evaluate(in Inputs, p, d int) (Choice, error) {
	return evaluate(in, p, d, nil)
}

// evaluate picks the highest-throughput micro-batch size for (p, d),
// ties to the smallest m, without simulating sizes that provably
// cannot win. sim.MakespanLowerBound caps each candidate's throughput;
// candidates are simulated in descending order of that ceiling, and
// the rest are skipped once the next ceiling falls strictly below the
// best throughput simulated so far. The choice is exactly that of
// simulating every size.
func evaluate(in Inputs, p, d int, cache *costCache) (Choice, error) {
	if p < 1 || d < 1 {
		return Choice{}, fmt.Errorf("autoconfig: bad shape %dx%d", p, d)
	}
	stages, err := model.Partition(in.Spec, in.Cuts, p, true)
	if err != nil {
		return Choice{}, err
	}
	type cand struct {
		c     Choice
		key   costKey
		e     *costEntry
		costs []sim.StageCosts
		ceil  float64
	}
	// pruneMicroSizes keeps at most three sizes, all memory-feasible.
	cands := make([]cand, 0, 3)
	for _, m := range pruneMicroSizes(in, stages, p, d, in.Params.PickMicroSize(0.05)) {
		key := costKey{spec: in.Spec, p: p, m: m, d: d}
		e, costs, err := cache.stageCosts(in, stages, key)
		if err != nil {
			return Choice{}, err
		}
		nm := GradAccum(in.MTotal, m, d)
		c := Choice{ // Est holds the bound until the candidate is simulated
			P: p, D: d, M: m, Nm: nm,
			Stages:   stages,
			Est:      sim.MakespanLowerBound(costs, nm),
			GPUsUsed: p * d,
			Examples: m * nm * d,
		}
		ceil := math.Inf(1)
		if c.Est > 0 {
			ceil = c.TotalExPerSec()
		}
		cands = append(cands, cand{c: c, key: key, e: e, costs: costs, ceil: ceil})
	}
	if len(cands) == 0 {
		return Choice{}, fmt.Errorf("autoconfig: %s does not fit at P=%d on this GPU memory", in.Spec.Name, p)
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(b.ceil, a.ceil) })
	var best Choice
	for i, k := range cands {
		if i > 0 && k.ceil < best.TotalExPerSec() {
			for _, k := range cands[i:] {
				cache.prune(k.key, k.e, k.costs)
			}
			break
		}
		c := k.c
		if c.Est, err = cache.estimate(k.key, k.e, k.costs, c.Nm); err != nil {
			return Choice{}, err
		}
		if i == 0 || c.TotalExPerSec() > best.TotalExPerSec() ||
			(c.TotalExPerSec() == best.TotalExPerSec() && c.M < best.M) {
			best = c
		}
	}
	return best, nil
}

// pruneMicroSizes ranks the memory-feasible profiled micro-batch sizes
// by an analytic throughput score — kernel time per example times the
// fill/drain bubble factor — and keeps the top three for simulation.
// The score orders candidates well enough that simulating the rest is
// wasted work during a morph, where decision latency matters (§7.2).
func pruneMicroSizes(in Inputs, stages []model.Stage, p, d, sweet int) []int {
	type scored struct {
		m     int
		score float64
	}
	var cands []scored
	for _, m := range in.Params.MicroSizes {
		if m > sweet {
			break
		}
		nm := GradAccum(in.MTotal, m, d)
		if !fits(in, stages, m, nm, p) {
			continue
		}
		perExample := in.Params.PerExampleFwdAt(m)
		bubble := float64(nm) / float64(nm+p-1)
		cands = append(cands, scored{m: m, score: bubble / perExample})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if len(cands) > 3 {
		cands = cands[:3]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.m
	}
	sort.Ints(out)
	return out
}

// fits checks every stage of the partition against GPU memory.
func fits(in Inputs, stages []model.Stage, m, nm, p int) bool {
	for _, st := range stages {
		mm := model.MemoryModel{Spec: in.Spec, Stage: st, WeightCopies: 1}
		if !mm.Fits(m, nm, p, in.GPUMem) {
			return false
		}
	}
	return true
}

// Sweep evaluates every feasible pipeline depth for g GPUs, in O(G)
// total simulator invocations (§4.4): P runs from the smallest depth
// where the model fits up to the number of cut-points, one balanced
// cut-point assignment per depth. Candidates are evaluated on a
// bounded worker pool (GOMAXPROCS workers) — decision latency during a
// morph is wasted cluster time (§7.2) — and the result is merged in
// deterministic candidate order, so the output is bit-identical to a
// serial sweep.
func Sweep(in Inputs, g int) ([]Choice, error) {
	return sweepWorkers(in, g, runtime.GOMAXPROCS(0), nil)
}

// shape is one (P, D) point of a sweep.
type shape struct{ p, d int }

// sweepShapes lists the (P, D) points a sweep over g GPUs evaluates,
// in ascending D. For a fixed data-parallel width D the deepest
// pipeline that the cut-points allow, P = min(⌊G/D⌋, maxP), strictly
// dominates shallower ones at the same D: same allreduce cost, fewer
// idle GPUs. Sweeping the distinct D values therefore covers the
// configuration space in O(G/P_min) simulator calls instead of
// O(maxP) — the §4.4 exploration bound.
func sweepShapes(in Inputs, g int) []shape {
	maxP := len(in.Cuts) + 1
	if maxP > g {
		maxP = g
	}
	var out []shape
	seen := make(map[int]bool)
	for d := 1; d <= g; d++ {
		p := g / d
		if p > maxP {
			p = maxP
		}
		if p < 1 {
			break
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, shape{p: p, d: g / p})
	}
	return out
}

// sweepWorkers is Sweep with an explicit worker count and an optional
// long-lived cache (nil builds a per-sweep one); workers <= 1
// evaluates serially. Tests compare the paths for identity.
func sweepWorkers(in Inputs, g, workers int, cache *costCache) ([]Choice, error) {
	if g < 1 {
		return nil, fmt.Errorf("autoconfig: no GPUs")
	}
	cands := sweepShapes(in, g)
	choices := make([]Choice, len(cands))
	errs := make([]error, len(cands))
	if cache == nil {
		cache = newCostCache(len(cands))
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i, c := range cands {
			choices[i], errs[i] = evaluate(in, c.p, c.d, cache)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(cands) {
						return
					}
					choices[i], errs[i] = evaluate(in, cands[i].p, cands[i].d, cache)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic merge: candidate order is ascending D, exactly the
	// order the serial loop appended in.
	var out []Choice
	for i := range cands {
		if errs[i] != nil {
			continue // does not fit at this depth; deeper may
		}
		out = append(out, choices[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("autoconfig: %s does not fit on %d×%s GPUs", in.Spec.Name, g, humanBytes(in.GPUMem))
	}
	return out, nil
}

// Best picks the highest-total-throughput configuration for g GPUs —
// the decision rule the §4.6 manager applies after every fleet change.
func Best(in Inputs, g int) (Choice, error) {
	return best(g, func(g int) ([]Choice, error) { return Sweep(in, g) })
}

// best reduces a sweep to its top-throughput choice; the sweep
// function seam lets Planner.Best route through the lifetime caches.
func best(g int, sweep func(int) ([]Choice, error)) (Choice, error) {
	out, err := sweep(g)
	if err != nil {
		return Choice{}, err
	}
	top := out[0]
	for _, c := range out[1:] {
		if c.TotalExPerSec() > top.TotalExPerSec() {
			top = c
		}
	}
	return top, nil
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

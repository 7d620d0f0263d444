package autoconfig

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// The micro-batch pruning inside evaluate is certified twice over: the
// makespan lower bound it prunes on never exceeds a brute-force
// simulation of any candidate a sweep visits, and pruned sweeps and
// objective decisions equal those of simulating every candidate by
// brute force, for every fleet size up to 256 GPUs.
//
// By default that covers the 24-layer BERT and GPT-2 models and the
// 2.5B model every committed scenario trains (G ≤ 64 under -short).
// VARUNA_FULL_ZOO=1 extends it to every zoo model, which brute-forces
// deep pipelines of the 8–20B models for several minutes.

// pruneScope lists the models and the largest fleet size to certify.
func pruneScope(t *testing.T) ([]Inputs, int) {
	t.Helper()
	zooOnce.Do(func() {
		for _, spec := range model.Zoo() {
			in, err := calibratedInputs(spec, spec.NumLayers-1)
			if err != nil {
				zooErr = fmt.Errorf("%s: %w", spec.Name, err)
				return
			}
			zooIn = append(zooIn, in)
		}
	})
	if zooErr != nil {
		t.Fatal(zooErr)
	}
	maxG := 256
	if testing.Short() {
		maxG = 64
	}
	if os.Getenv("VARUNA_FULL_ZOO") != "" {
		return zooIn, maxG
	}
	var out []Inputs
	for _, in := range zooIn {
		switch in.Spec.Name {
		case "BERT-large", "GPT2-355M", "GPT2-2.5B":
			out = append(out, in)
		}
	}
	return out, maxG
}

var (
	zooOnce sync.Once
	zooIn   []Inputs
	zooErr  error

	bruteMu sync.Mutex
	brute   = make(map[costKey]simtime.Duration)
)

// bruteMakespan simulates one candidate with the steady-state detector
// off, memoized across both tests.
func bruteMakespan(t *testing.T, key costKey, costs []sim.StageCosts, nm int) simtime.Duration {
	t.Helper()
	bruteMu.Lock()
	defer bruteMu.Unlock()
	if est, ok := brute[key]; ok {
		return est
	}
	res, err := sim.Run(sim.Config{
		Depth: key.p, Micros: nm, Policy: schedule.Varuna, Costs: costs,
		DisableSteadyState: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	brute[key] = res.Makespan
	return res.Makespan
}

// exhaustiveResult is one memoized reference evaluation.
type exhaustiveResult struct {
	c   Choice
	err error
}

// exhaustiveEvaluate is the reference for evaluate: simulate every
// kept micro-batch size by brute force in ascending order and keep the
// first strictly faster one.
func exhaustiveEvaluate(t *testing.T, in Inputs, p, d int) (Choice, error) {
	stages, err := model.Partition(in.Spec, in.Cuts, p, true)
	if err != nil {
		return Choice{}, err
	}
	var best Choice
	found := false
	for _, m := range pruneMicroSizes(in, stages, p, d, in.Params.PickMicroSize(0.05)) {
		nm := GradAccum(in.MTotal, m, d)
		if !fits(in, stages, m, nm, p) {
			continue
		}
		costs, err := in.Params.StageCosts(in.Spec, stages, m, d, interFlags(p, in.GPUsPerNode))
		if err != nil {
			return Choice{}, err
		}
		est := bruteMakespan(t, costKey{spec: in.Spec, p: p, m: m, d: d}, costs, nm)
		c := Choice{P: p, D: d, M: m, Nm: nm, Stages: stages, Est: est, GPUsUsed: p * d, Examples: m * nm * d}
		if !found || c.TotalExPerSec() > best.TotalExPerSec() {
			best, found = c, true
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("autoconfig: %s does not fit at P=%d on this GPU memory", in.Spec.Name, p)
	}
	return best, nil
}

// exhaustiveSweep is Sweep over exhaustiveEvaluate, memoized per
// (P, D) in memo.
func exhaustiveSweep(t *testing.T, in Inputs, memo map[shape]exhaustiveResult) func(int) ([]Choice, error) {
	return func(g int) ([]Choice, error) {
		if g < 1 {
			return nil, fmt.Errorf("autoconfig: no GPUs")
		}
		var out []Choice
		for _, sh := range sweepShapes(in, g) {
			r, ok := memo[sh]
			if !ok {
				r.c, r.err = exhaustiveEvaluate(t, in, sh.p, sh.d)
				memo[sh] = r
			}
			if r.err == nil {
				out = append(out, r.c)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("autoconfig: %s does not fit on %d GPUs", in.Spec.Name, g)
		}
		return out, nil
	}
}

// pruneObjectives are the decision rules checked against the
// reference: throughput, min-$ at a price spike and a deadline that
// needs part of the fleet, each with a preemption hazard.
func pruneObjectives() []struct {
	obj Objective
	ec  Econ
} {
	ec := Econ{PerGPUHour: 2.4, MeanPerGPUHour: 1, PreemptEvery: 20 * simtime.Minute, CheckpointEvery: 50}
	dl := ec
	dl.Now = simtime.Time(simtime.Hour)
	return []struct {
		obj Objective
		ec  Econ
	}{
		{Objective{}, ec},
		{Objective{Kind: ObjMinDollarPerExample}, ec},
		{Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(11 * simtime.Hour), TargetExamples: 3e6}, dl},
	}
}

// TestPrunedSweepMatchesExhaustive compares a Planner's pruned sweeps
// and objective decisions with the exhaustive reference for every
// fleet size in scope.
func TestPrunedSweepMatchesExhaustive(t *testing.T) {
	specs, maxG := pruneScope(t)
	var pruned uint64
	for _, in := range specs {
		pl := NewPlanner(in)
		ref := exhaustiveSweep(t, in, map[shape]exhaustiveResult{})
		for g := 1; g <= maxG; g++ {
			got, gerr := pl.Sweep(g)
			want, werr := ref(g)
			if (gerr != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s G=%d: pruned sweep %v (%v), exhaustive %v (%v)", in.Spec.Name, g, got, gerr, want, werr)
			}
			if werr != nil {
				continue
			}
			for _, oc := range pruneObjectives() {
				got, err := pl.BestFor(g, oc.obj, oc.ec)
				if err != nil {
					t.Fatalf("%s G=%d %v: %v", in.Spec.Name, g, oc.obj.Kind, err)
				}
				var want Choice
				if oc.obj.Kind == ObjMaxThroughput {
					want, err = best(g, ref)
				} else {
					var cands []Choice
					cands, err = candidatesFor(g, ref)
					want, _ = selectFor(cands, oc.obj, oc.ec)
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s G=%d %v: pruned %v, exhaustive %v (%v)", in.Spec.Name, g, oc.obj.Kind, got, want, err)
				}
			}
		}
		pruned += pl.Stats().CandidatesPruned
	}
	if pruned == 0 {
		t.Fatal("no candidate was ever pruned: the equivalence is vacuous")
	}
}

// TestMakespanLowerBoundCertified checks sim.MakespanLowerBound against
// a brute-force (steady-state detector off) simulation of every
// (P, m, D, Nm) candidate a sweep in scope visits, pruned or not.
func TestMakespanLowerBoundCertified(t *testing.T) {
	specs, maxG := pruneScope(t)
	n, tightest, loosest := 0, 0.0, 1.0
	for _, in := range specs {
		seen := make(map[costKey]bool)
		for g := 1; g <= maxG; g++ {
			for _, sh := range sweepShapes(in, g) {
				stages, err := model.Partition(in.Spec, in.Cuts, sh.p, true)
				if err != nil {
					continue
				}
				for _, m := range pruneMicroSizes(in, stages, sh.p, sh.d, in.Params.PickMicroSize(0.05)) {
					key := costKey{spec: in.Spec, p: sh.p, m: m, d: sh.d}
					if seen[key] {
						continue
					}
					seen[key] = true
					costs, err := in.Params.StageCosts(in.Spec, stages, m, sh.d, interFlags(sh.p, in.GPUsPerNode))
					if err != nil {
						t.Fatal(err)
					}
					nm := GradAccum(in.MTotal, m, sh.d)
					lb, mk := sim.MakespanLowerBound(costs, nm), bruteMakespan(t, key, costs, nm)
					if lb > mk {
						t.Fatalf("%s P=%d m=%d D=%d Nm=%d: bound %v exceeds makespan %v", in.Spec.Name, sh.p, m, sh.d, nm, lb, mk)
					}
					n++
					r := float64(lb) / float64(mk)
					tightest, loosest = max(tightest, r), min(loosest, r)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no candidate checked")
	}
	t.Logf("%d candidates; bound/makespan from %.3f to %.3f", n, loosest, tightest)
}

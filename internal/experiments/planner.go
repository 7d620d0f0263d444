package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/hw"
	"repro/internal/model"
)

// PlannerCaching measures the morph-decision hot path across repeated
// sweeps: the §4.6 manager re-runs the §4.4 simulator sweep on every
// fleet change, and §7.2 requires that decision to be far cheaper than
// the work it reschedules. Two consecutive G=128 sweeps of the 8.3B
// model run through one Planner — the second is served from the
// lifetime (spec, p, m, d) cost cache and must be both much faster and
// bit-identical to the first.
func PlannerCaching(x *Ctx) (*Table, error) {
	spec := model.GPT2Megatron8B()
	cluster := hw.SpotCluster(hw.NC6v3, 300)
	job, err := x.sharedJob(spec, cluster, 8192, 21)
	if err != nil {
		return nil, err
	}
	// A fresh Planner, deliberately not the job's own: the experiment
	// times the cold/warm contrast, so sweep 1 must really be cold.
	pl := autoconfig.NewPlanner(job.Inputs())

	start := time.Now()
	first, err := pl.Sweep(128)
	if err != nil {
		return nil, err
	}
	coldMS := float64(time.Since(start).Microseconds()) / 1000
	afterCold := pl.Stats()

	start = time.Now()
	second, err := pl.Sweep(128)
	if err != nil {
		return nil, err
	}
	warmMS := float64(time.Since(start).Microseconds()) / 1000
	s := pl.Stats()

	identical := reflect.DeepEqual(first, second)
	recomputes := s.CostComputes - afterCold.CostComputes
	reruns := s.SimAnchorRuns - afterCold.SimAnchorRuns
	pruned := s.CandidatesPruned - afterCold.CandidatesPruned

	t := &Table{
		Title:  "Planner: cross-sweep cost caching, 8.3B sweep at G=128",
		Header: []string{"Sweep", "Wall ms", "Candidates", "StageCosts builds", "Anchor sims", "m pruned"},
	}
	t.Add("1 (cold)", f1(coldMS), fmt.Sprint(len(first)), fmt.Sprint(afterCold.CostComputes), fmt.Sprint(afterCold.SimAnchorRuns), fmt.Sprint(afterCold.CandidatesPruned))
	t.Add("2 (cached)", f1(warmMS), fmt.Sprint(len(second)), fmt.Sprint(recomputes), fmt.Sprint(reruns), fmt.Sprint(pruned))
	speedup := 0.0
	if warmMS > 0 {
		speedup = coldMS / warmMS
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("second sweep bit-identical to first: %v", identical),
		fmt.Sprintf("second sweep %.0fx faster; cost cache hit rate %.0f%% (%d hits, %d misses)",
			speedup, 100*s.HitRate(), s.CostHits, s.CostMisses),
		"anchor sims count micro-batch sizes simulated; m pruned counts sizes skipped because their makespan lower bound could not beat a simulated size of the same P×D",
		"the §4.6 manager keeps one Planner per job, so every morph after the first at a given fleet size pays neither partition costs nor anchor simulations")
	if !identical {
		return t, fmt.Errorf("planner: cached sweep diverged from cold sweep")
	}
	if recomputes != 0 || reruns != 0 {
		return t, fmt.Errorf("planner: cached sweep recomputed (%d StageCosts, %d anchor sims)", recomputes, reruns)
	}
	return t, nil
}

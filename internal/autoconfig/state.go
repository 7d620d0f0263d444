package autoconfig

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// PlannerState is the serializable snapshot of a Planner's lifetime
// caches — what restart.SaveState persists alongside the §4.5
// checkpoint so a manager restart resumes with warm morph decisions.
// The snapshot records every Inputs field that cached values depend on
// (the same set SetInputs invalidates on); ImportState refuses a
// snapshot taken for a different job.
type PlannerState struct {
	Version     int              `json:"version"`
	Spec        string           `json:"spec"`
	MTotal      int              `json:"m_total"`
	GPUMem      int64            `json:"gpu_mem"`
	GPUsPerNode int              `json:"gpus_per_node"`
	Cuts        []model.CutPoint `json:"cuts"`
	Costs       []CostState      `json:"costs"`
	Decisions   []DecisionState  `json:"decisions"`
}

// plannerStateVersion guards the on-disk format.
const plannerStateVersion = 1

// CostState is one (p, m, d) cost-cache entry. Nm = 0 marks a
// costs-only entry: a candidate pruned without simulation.
type CostState struct {
	P     int              `json:"p"`
	M     int              `json:"m"`
	D     int              `json:"d"`
	Nm    int              `json:"nm"`
	Est   simtime.Duration `json:"est"`
	Costs []sim.StageCosts `json:"costs"`
}

// validate rejects an entry no sweep could have stored: a cost vector
// that is not one entry per stage, a simulated estimate (Nm > 0) that
// is not a positive time, or a costs-only entry (Nm = 0, stored for a
// pruned candidate) that claims an estimate.
func (cs CostState) validate() error {
	switch {
	case len(cs.Costs) != cs.P:
		return fmt.Errorf("autoconfig: planner state entry P=%d m=%d D=%d has %d stage costs", cs.P, cs.M, cs.D, len(cs.Costs))
	case cs.Nm < 0:
		return fmt.Errorf("autoconfig: planner state entry P=%d m=%d D=%d has Nm=%d", cs.P, cs.M, cs.D, cs.Nm)
	case cs.Nm > 0 && cs.Est <= 0:
		return fmt.Errorf("autoconfig: planner state entry P=%d m=%d D=%d has estimate %v at Nm=%d", cs.P, cs.M, cs.D, cs.Est, cs.Nm)
	case cs.Nm == 0 && cs.Est != 0:
		return fmt.Errorf("autoconfig: planner state entry P=%d m=%d D=%d is costs-only but has estimate %v", cs.P, cs.M, cs.D, cs.Est)
	}
	return nil
}

// DecisionState is one Best(g) memo entry; Err carries memoized
// infeasibility.
type DecisionState struct {
	G      int    `json:"g"`
	Choice Choice `json:"choice"`
	Err    string `json:"err,omitempty"`
}

// validate rejects a memo entry no sweep could have stored, by
// arithmetic alone (a warm resume must stay cheap): an infeasibility
// entry that still carries a choice, or a choice whose shape, GPU
// count, effective batch or estimate is inconsistent with itself, the
// fleet size G, the job's profiled micro-batch sizes or its mini-batch.
// ImportState checks the estimate against the rest of the file.
func (ds DecisionState) validate(in Inputs) error {
	c := ds.Choice
	if ds.Err != "" {
		if c.P != 0 || c.D != 0 || c.M != 0 || c.Nm != 0 || len(c.Stages) != 0 || c.Est != 0 || c.GPUsUsed != 0 || c.Examples != 0 {
			return fmt.Errorf("autoconfig: planner state decision G=%d is infeasible but holds choice %v", ds.G, c)
		}
		return nil
	}
	switch {
	case c.P < 1 || c.D < 1 || c.P > ds.G || c.D > ds.G:
		return ds.errorf("not a shape on %d GPUs", ds.G)
	case !slices.Contains(in.Params.MicroSizes, c.M):
		return ds.errorf("m is not a profiled micro-batch size %v", in.Params.MicroSizes)
	case len(c.Stages) != c.P:
		return ds.errorf("%d stages", len(c.Stages))
	case c.GPUsUsed != c.P*c.D || c.GPUsUsed > ds.G:
		return ds.errorf("%d GPUs used", c.GPUsUsed)
	case c.Nm != GradAccum(in.MTotal, c.M, c.D):
		return ds.errorf("Nm is not the accumulation count %d of a %d-example mini-batch", GradAccum(in.MTotal, c.M, c.D), in.MTotal)
	case c.Examples != c.M*c.Nm*c.D:
		return ds.errorf("%d examples, want m·Nm·D = %d", c.Examples, c.M*c.Nm*c.D)
	case c.Est <= 0:
		return ds.errorf("estimate %v", c.Est)
	}
	return nil
}

// errorf reports a bad memo entry, naming it.
func (ds DecisionState) errorf(format string, args ...any) error {
	c := ds.Choice
	return fmt.Errorf("autoconfig: planner state decision G=%d (%dx%d m=%d Nm=%d): %s",
		ds.G, c.P, c.D, c.M, c.Nm, fmt.Sprintf(format, args...))
}

// ExportState snapshots both caches as deterministic JSON (entries
// sorted by key). It implements restart.StateCarrier.
func (pl *Planner) ExportState() ([]byte, error) {
	pl.mu.Lock()
	in := pl.in
	decs := make(map[int]plannerDecision, pl.dec.Len())
	pl.dec.Each(func(g int, d plannerDecision) { decs[g] = d })
	cache := pl.cache
	pl.mu.Unlock()

	st := PlannerState{
		Version:     plannerStateVersion,
		Spec:        in.Spec.Name,
		MTotal:      in.MTotal,
		GPUMem:      in.GPUMem,
		GPUsPerNode: in.GPUsPerNode,
		Cuts:        append([]model.CutPoint(nil), in.Cuts...),
	}
	for key, e := range cache.snapshot() {
		st.Costs = append(st.Costs, CostState{
			P: key.p, M: key.m, D: key.d, Nm: e.nm, Est: e.est, Costs: e.costs,
		})
	}
	sort.Slice(st.Costs, func(i, j int) bool {
		a, b := st.Costs[i], st.Costs[j]
		if a.P != b.P {
			return a.P < b.P
		}
		if a.M != b.M {
			return a.M < b.M
		}
		return a.D < b.D
	})
	for g, d := range decs {
		ds := DecisionState{G: g, Choice: d.choice}
		if d.err != nil {
			ds.Err = d.err.Error()
		}
		st.Decisions = append(st.Decisions, ds)
	}
	sort.Slice(st.Decisions, func(i, j int) bool { return st.Decisions[i].G < st.Decisions[j].G })
	return json.MarshalIndent(st, "", "  ")
}

// ImportState restores a snapshot taken by ExportState into this
// Planner's caches. The snapshot must have been taken for the same
// model (matched by spec name); entries are rebound to the Planner's
// live *model.Spec. Imported values are exactly what a cold
// computation would produce, so a warmed Planner stays bit-identical
// to a cold one — it just skips the recomputation
// (TestPlannerStateRoundTrip pins zero cost computes after import).
// Every cost and decision entry is checked before any is stored, so a
// corrupt snapshot fails the import and leaves the caches untouched.
func (pl *Planner) ImportState(data []byte) error {
	var st PlannerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("autoconfig: planner state: %w", err)
	}
	if st.Version != plannerStateVersion {
		return fmt.Errorf("autoconfig: planner state version %d, want %d", st.Version, plannerStateVersion)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if st.Spec != pl.in.Spec.Name {
		return fmt.Errorf("autoconfig: planner state is for %q, this job trains %q", st.Spec, pl.in.Spec.Name)
	}
	// Cached decisions bake in every one of these (Nm and Examples
	// derive from M_total, placement from GPUsPerNode, feasibility from
	// GPU memory, stages from the cuts) — the same fields SetInputs
	// invalidates on. A snapshot from a differently-configured job must
	// not warm this one.
	if st.MTotal != pl.in.MTotal || st.GPUMem != pl.in.GPUMem || st.GPUsPerNode != pl.in.GPUsPerNode {
		return fmt.Errorf("autoconfig: planner state is for M=%d/mem=%d/gpn=%d, this job runs M=%d/mem=%d/gpn=%d",
			st.MTotal, st.GPUMem, st.GPUsPerNode, pl.in.MTotal, pl.in.GPUMem, pl.in.GPUsPerNode)
	}
	if !sameCuts(st.Cuts, pl.in.Cuts) {
		return fmt.Errorf("autoconfig: planner state was taken under different cut-points")
	}
	// A memoized choice carries the estimate of its (P, m, D): the same
	// as every other choice of that shape, and the one the file's
	// simulated cost entry for it holds, when there is one.
	memo := make(map[[3]int]DecisionState)
	for _, ds := range st.Decisions {
		if err := ds.validate(pl.in); err != nil {
			return err
		}
		if ds.Err != "" {
			continue
		}
		key := [3]int{ds.Choice.P, ds.Choice.M, ds.Choice.D}
		if prev, ok := memo[key]; ok && prev.Choice.Est != ds.Choice.Est {
			return ds.errorf("estimate %v, but decision G=%d holds %v for the same shape", ds.Choice.Est, prev.G, prev.Choice.Est)
		}
		memo[key] = ds
	}
	for _, cs := range st.Costs {
		if err := cs.validate(); err != nil {
			return err
		}
		if ds, ok := memo[[3]int{cs.P, cs.M, cs.D}]; ok && cs.Nm > 0 && (cs.Nm != ds.Choice.Nm || cs.Est != ds.Choice.Est) {
			return ds.errorf("estimate %v, but its cost entry holds Nm=%d estimate %v", ds.Choice.Est, cs.Nm, cs.Est)
		}
	}
	for _, cs := range st.Costs {
		key := costKey{spec: pl.in.Spec, p: cs.P, m: cs.M, d: cs.D}
		pl.cache.store(key, &costEntry{costs: cs.Costs, nm: cs.Nm, est: cs.Est})
	}
	for _, ds := range st.Decisions {
		dec := plannerDecision{choice: ds.Choice}
		if ds.Err != "" {
			dec.err = errors.New(ds.Err)
		}
		pl.dec.Put(ds.G, dec)
	}
	return nil
}

package autoconfig

import (
	"encoding/json"
	"errors"
	"fmt"
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
	for _, cs := range st.Costs {
		if err := cs.validate(); err != nil {
			return err
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

package autoconfig

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestPrunedPlannerStateRoundTrip: a planner whose sweeps pruned
// candidates exports their costs-only entries too, so a planner warmed
// from that state repeats the sweep with no StageCosts build and no
// simulation.
func TestPrunedPlannerStateRoundTrip(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	first, err := pl.Sweep(96)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats().CandidatesPruned == 0 {
		t.Fatal("the sweep pruned nothing; the round trip proves nothing about costs-only entries")
	}
	data, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPlanner(in)
	if err := warm.ImportState(data); err != nil {
		t.Fatal(err)
	}
	again, err := warm.Sweep(96)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("warm sweep diverged from the cold one")
	}
	if s := warm.Stats(); s.CostComputes != 0 || s.SimAnchorRuns != 0 {
		t.Fatalf("warm planner recomputed: %+v", s)
	}
}

// TestImportStateRejectsCorruptCosts feeds hand-corrupted cost entries
// and expects ImportState to fail on each.
func TestImportStateRejectsCorruptCosts(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	if _, err := pl.Best(64); err != nil {
		t.Fatal(err)
	}
	data, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(st *PlannerState){
		"every estimate negative": func(st *PlannerState) {
			for i := range st.Costs {
				if st.Costs[i].Nm > 0 {
					st.Costs[i].Est = -st.Costs[i].Est
				}
			}
		},
		"cost vector not one per stage": func(st *PlannerState) {
			st.Costs[0].Costs = st.Costs[0].Costs[1:]
		},
		"simulated entry without estimate": func(st *PlannerState) {
			for i := range st.Costs {
				if st.Costs[i].Nm > 0 {
					st.Costs[i].Est = 0
					return
				}
			}
			t.Fatal("no simulated entry")
		},
		"costs-only entry with estimate": func(st *PlannerState) {
			for i := range st.Costs {
				if st.Costs[i].Nm == 0 {
					st.Costs[i].Est = 1
					return
				}
			}
			t.Fatal("no costs-only entry")
		},
		"negative micro-batch count": func(st *PlannerState) {
			st.Costs[0].Nm = -1
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			var st PlannerState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			corrupt(&st)
			bad, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			err = NewPlanner(in).ImportState(bad)
			if err == nil || !strings.Contains(err.Error(), "planner state entry") {
				t.Fatalf("corrupt state imported: %v", err)
			}
		})
	}
}

// TestImportStateRejectsCorruptDecisions feeds hand-corrupted decision
// memo entries and expects ImportState to fail on each, naming the
// entry, and to store nothing — cost entries included.
func TestImportStateRejectsCorruptDecisions(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	if _, err := pl.Best(64); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Best(2); err == nil {
		t.Fatal("the model fits on 2 GPUs; no infeasibility entry to corrupt")
	}
	data, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// chosen returns the memo's feasible choice at G=64.
	chosen := func(st *PlannerState) *Choice {
		for i := range st.Decisions {
			if st.Decisions[i].G == 64 {
				return &st.Decisions[i].Choice
			}
		}
		t.Fatal("no G=64 decision")
		return nil
	}
	cases := map[string]func(st *PlannerState){
		"inflated throughput": func(st *PlannerState) {
			for i := range st.Decisions {
				if st.Decisions[i].Err == "" {
					st.Decisions[i].Choice.Est = 1
					st.Decisions[i].Choice.Examples = 1e12
				}
			}
		},
		"infeasible entry with a choice": func(st *PlannerState) {
			c := *chosen(st)
			for i := range st.Decisions {
				if st.Decisions[i].Err != "" {
					st.Decisions[i].Choice = c
				}
			}
		},
		"zero depth": func(st *PlannerState) { chosen(st).P = 0 },
		"unprofiled micro-batch size": func(st *PlannerState) {
			c := chosen(st)
			c.M = 1 << 40
			c.Nm = GradAccum(in.MTotal, c.M, c.D)
			c.Examples = c.M * c.Nm * c.D
		},
		"stages not one per depth": func(st *PlannerState) { c := chosen(st); c.Stages = c.Stages[1:] },
		"GPUs used not P·D":        func(st *PlannerState) { chosen(st).GPUsUsed++ },
		"shape wider than the fleet": func(st *PlannerState) {
			c := chosen(st)
			c.D *= 2
			c.GPUsUsed = c.P * c.D
		},
		"examples not m·Nm·D": func(st *PlannerState) { chosen(st).Examples++ },
		"Nm not the accumulation count": func(st *PlannerState) {
			c := chosen(st)
			c.Nm++
			c.Examples = c.M * c.Nm * c.D
		},
		"estimate not positive":          func(st *PlannerState) { chosen(st).Est = 0 },
		"estimate unlike its cost entry": func(st *PlannerState) { chosen(st).Est++ },
		"same shape, another estimate": func(st *PlannerState) {
			c := *chosen(st)
			c.Est++
			st.Decisions = append(st.Decisions, DecisionState{G: 65, Choice: c})
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			var st PlannerState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			corrupt(&st)
			bad, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewPlanner(in)
			err = fresh.ImportState(bad)
			if err == nil || !strings.Contains(err.Error(), "planner state decision G=") {
				t.Fatalf("corrupt state imported: %v", err)
			}
			if fresh.dec.Len() != 0 || len(fresh.cache.snapshot()) != 0 {
				t.Fatal("a rejected import stored entries")
			}
		})
	}
}

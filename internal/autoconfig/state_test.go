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

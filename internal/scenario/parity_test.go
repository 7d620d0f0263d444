package scenario

import (
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
	"repro/scenarios"
)

// The three migrated experiments must reproduce the legacy Go paths
// bit-identically: the scenario file is a re-expression of the same
// run, not an approximation. Each test executes the legacy wiring
// exactly as internal/experiments does and compares the full timeline
// and stats against the committed scenario file.

func runCommitted(t *testing.T, file string) *Result {
	t.Helper()
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireParity(t *testing.T, res *Result, points []manager.TimelinePoint, stats manager.Stats) {
	t.Helper()
	if !reflect.DeepEqual(res.Stats, stats) {
		t.Errorf("stats diverge from the legacy path:\nscenario %+v\nlegacy   %+v", res.Stats, stats)
	}
	if !reflect.DeepEqual(res.Points, points) {
		t.Errorf("timeline diverges from the legacy path: %d vs %d points", len(res.Points), len(points))
	}
	if len(res.Report.Violations) != 0 {
		t.Errorf("invariant violations: %v", res.Report.Violations)
	}
}

func TestElasticParity(t *testing.T) {
	job, err := core.NewJob(model.GPT2XL2B(), hw.SpotCluster(hw.NC6v3, 150), 8192, 54)
	if err != nil {
		t.Fatal(err)
	}
	mk := spot.NewMarket(1, 120, 55)
	points, stats, err := job.RunOnSpotMarket(mk, 150, 60*simtime.Hour, 56)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, runCommitted(t, "elastic.yaml"), points, stats)
}

func TestRestartCostParity(t *testing.T) {
	cluster := hw.SpotCluster(hw.NC6v3, 150)
	job, err := core.NewJob(model.GPT2XL2B(), cluster, 8192, 54)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 24 * simtime.Hour
	events := spot.EventTrace(spot.NewMarket(1, 120, 55), 150, horizon, 10*simtime.Minute)
	mg := manager.NewWithPlanner(job.Inputs(), testbed.New(cluster, 58), job.Planner(), manager.DefaultOptions(), 56)
	points, stats, err := mg.RunTimeline(events, horizon)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, runCommitted(t, "restart-cost.yaml"), points, stats)
}

func TestSpotDollarsParity(t *testing.T) {
	cluster := hw.SpotCluster(hw.NC6v3, 150)
	job, err := core.NewJob(model.GPT2XL2B(), cluster, 8192, 54)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 24 * simtime.Hour
	events := spot.EventTrace(spot.NewMarket(1, 120, 55), 150, horizon, 10*simtime.Minute)
	curve, err := price.MeanReverting(price.MROptions{
		Mean: 2.40, Vol: 0.18, Reversion: 0.12, Horizon: horizon,
	}, 61)
	if err != nil {
		t.Fatal(err)
	}
	opts := manager.DefaultOptions()
	opts.Prices = curve
	opts.Objective = autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}
	mg := manager.NewWithPlanner(job.Inputs(), testbed.New(cluster, 58), job.Planner(), opts, 56)
	points, stats, err := mg.RunTimeline(events, horizon)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, runCommitted(t, "spot-dollars.yaml"), points, stats)
}

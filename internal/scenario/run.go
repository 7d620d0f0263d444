package scenario

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/manager"
	"repro/internal/price"
	"repro/internal/restart"
)

// Result is one scenario execution: the raw manager timeline and
// stats, plus the structured report with invariant checks.
type Result struct {
	Compiled *Compiled
	Points   []manager.TimelinePoint
	Stats    manager.Stats
	Report   *Report
}

// Run compiles and executes a scenario. stateDir, when non-empty,
// warm-starts the planner cache and the cost meter from
// <dir>/planner-state.json (if present) and persists both after the
// run — the §4.5 kill-and-resume discipline, so a scenario
// interrupted and re-run continues its cumulative bill and skips the
// cold planner sweep. A corrupt state file fails the run.
func Run(sc *Scenario, stateDir string) (*Result, error) {
	c, err := Compile(sc)
	if err != nil {
		return nil, err
	}
	return c.Run(stateDir)
}

// Run executes an already-compiled scenario as a one-tenant fleet:
// the compiled stream replays through fleet.Replay. Repeated calls
// replay bit-identically apart from planner-cache warmth, which
// changes cost but never decisions.
func (c *Compiled) Run(stateDir string) (*Result, error) {
	sc := c.Scenario
	opts := c.Opts
	var sections restart.Sections
	if stateDir != "" {
		sections = restart.Sections{restart.SectionPlanner: c.Job.Planner()}
		if opts.Prices != nil {
			opts.Meter = price.NewMeter(opts.Prices)
			sections[restart.SectionMeter] = opts.Meter
		}
		if _, err := restart.LoadSections(stateDir, sections); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	c.sample(&opts, "")
	mg := c.manager(opts)
	mg.Degrade = c.Degrade
	mg.NetDegrade = c.NetSched
	mg.ObjChange = c.ObjSched
	mg.Outages = c.Outages
	res, err := fleet.Replay(&fleet.Job{Name: sc.Name, Mgr: mg}, c.Events, c.observed(fleet.Options{Horizon: c.Horizon}))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if stateDir != "" {
		if err := restart.SaveSections(stateDir, sections); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	jr := res.Jobs[0]
	c.gauges("", mg, jr.Stats)
	report := buildReport(&c.compiled, sc.Name, jr, c.Skipped)
	report.SLOs, report.Violations, report.Obs = c.conclude(report.Violations)
	return &Result{
		Compiled: c,
		Points:   jr.Points,
		Stats:    jr.Stats,
		Report:   report,
	}, nil
}

package main

import (
	"fmt"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/restart"
	"repro/internal/scenario"
)

const fleetFile = "multi-job.yaml"

// fleetRun is one timed CompiledFleet.Run. As with singleRun, only
// traced runs keep the compiled fleet and its result.
type fleetRun struct {
	c          *scenario.CompiledFleet
	res        *scenario.FleetResult
	wall       time.Duration
	mem        memUse
	examples   float64
	pool       float64
	outcome    string
	violations []string
	met        *obs.Metrics
}

// fleetOutcome is the exact simulated result of one fleet run.
type fleetOutcome struct {
	Stats      []manager.Stats `json:"stats"`
	Pool       float64         `json:"pool_dollars"`
	JobDollars []float64       `json:"job_dollars"`
}

// panelSize is the number of scenario replays one multi-job run makes.
func (b *Bench) panelSize() int {
	if b.Opts.Small {
		return 1
	}
	return fleetPanel
}

// compileFleet compiles the scenario reseeded by the workload seed, on
// the given market seed. Market committed+0 at seed 0 is the committed
// file.
func (b *Bench) compileFleet(market int64, s *samples) (*scenario.CompiledFleet, error) {
	sc, err := b.parseScenario(fleetFile, b.Opts.Seed, s)
	if err != nil {
		return nil, err
	}
	sc.Market.Seed = market
	end := b.spans.Begin("scenario.compile")
	t0 := time.Now()
	c, err := scenario.CompileFleet(sc)
	d := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	s.compile = append(s.compile, seconds(d))
	s.setup = append(s.setup, s.parse[len(s.parse)-1]+seconds(d))
	return c, nil
}

func (b *Bench) runFleet(c *scenario.CompiledFleet, traced bool) (*fleetRun, error) {
	r := &fleetRun{c: c}
	end := func() {}
	if traced {
		r.met = obs.NewMetrics()
		c.Observe(nil, r.met)
		end = b.spans.Begin("scenario.run")
	}
	mem := startMem()
	t0 := time.Now()
	res, err := c.Run()
	r.wall = time.Since(t0)
	r.mem = mem.Stop()
	end()
	if err != nil {
		return nil, err
	}
	o := fleetOutcome{Pool: res.Report.PoolDollars, JobDollars: res.Report.JobDollars}
	for _, j := range res.Jobs {
		o.Stats = append(o.Stats, j.Stats)
		r.examples += j.Stats.Examples
	}
	r.pool = res.Report.PoolDollars
	r.outcome = digest(o)
	r.violations = res.Report.Violations
	if traced {
		r.res = res
	} else {
		r.c = nil
	}
	return r, nil
}

// fleetPass is one replay of every panel member, in panel order.
type fleetPass struct{ runs []*fleetRun }

// runMultiJob drives three tenants through the fleet arbiter on one
// market, over the fixed panel of market seeds.
func runMultiJob(b *Bench) error {
	var s samples
	committed, err := b.parseScenario(fleetFile, 0, &samples{})
	if err != nil {
		return err
	}
	market := func(i int) int64 { return committed.Market.Seed + int64(i) }
	n := b.panelSize()
	if err := b.padSetups(&s, minSetups, func() error { _, err := b.compileFleet(market(0), &s); return err }); err != nil {
		return err
	}
	want := make([]string, n)
	walls := make([][]float64, n)
	mems := make([][]memUse, n)
	iter := func(traced bool) (*fleetPass, error) {
		pass := &fleetPass{}
		for i := 0; i < n; i++ {
			c, err := b.compileFleet(market(i), &s)
			if err != nil {
				return nil, err
			}
			r, err := b.runFleet(c, traced)
			b.Attempt(err)
			if err != nil {
				return nil, nil
			}
			if want[i] == "" {
				want[i] = r.outcome
			}
			b.checkReport(fmt.Sprintf("multi-job panel member %d", i), r.violations, b.plantFault("stats", r.outcome), want[i])
			if !traced {
				walls[i] = append(walls[i], seconds(r.wall))
				mems[i] = append(mems[i], r.mem)
				s.mem = append(s.mem, r.mem)
			}
			pass.runs = append(pass.runs, r)
		}
		return pass, nil
	}
	if !b.Opts.Trace {
		first, err := untracedPasses(b, iter)
		if err != nil {
			return err
		}
		b.reportFleetSim(first.runs[0])
		// The means over panel members of each member's fastest run and
		// smallest allocation.
		var per, alloc []float64
		for i, w := range walls {
			per = append(per, bestWall(w))
			alloc = append(alloc, leastAlloc(mems[i]))
			s.wall = append(s.wall, w...)
		}
		b.reportEndToEnd(&s, mean(per), mean(alloc))
		b.Note("panel of %d market seeds; fastest run per member %.3f s", n, per)
		return nil
	}
	untraced, traced, err := tracePasses(b, iter)
	if err != nil {
		return err
	}
	b.reportFleetSim(traced[0].runs[0])
	b.fleetLayers(&s, untraced, traced)

	// State probe: every tenant's planner, as one sectioned file.
	runs := traced[0].runs[0]
	src := restart.Sections{}
	var p pricer
	for _, j := range runs.c.Jobs {
		src["planner."+j.Name] = j.Mgr.Plan
	}
	for i, j := range runs.res.Jobs {
		p.add(runs.c.Jobs[i].Mgr.RM, morphPairs(j.Points))
	}
	fresh := func() restart.Sections {
		sec := restart.Sections{}
		for _, j := range runs.c.Jobs {
			sec["planner."+j.Name] = autoconfig.NewPlanner(j.Mgr.Plan.Inputs())
		}
		return sec
	}
	if _, err := b.probeState("", fresh, src); err != nil {
		return err
	}
	var rs samples
	ref, err := b.compileSingle(chaosFile, b.Opts.Seed, &rs)
	if err != nil {
		return err
	}
	return b.probeLayers(ref, p, true)
}

// reportFleetSim prints the exact simulated figures of panel member 0.
func (b *Bench) reportFleetSim(r *fleetRun) {
	b.Set("sim_examples", r.examples, "examples")
	if r.examples > 0 {
		b.Set("sim_dollars_per_kex", r.pool/r.examples*1000, "$/kex")
	}
	b.Note("sim_* figures are panel member 0; sim_downtime_frac is single-job only")
}

// fleetLayers derives the per-layer figures of traced fleet passes:
// counts summed over the first pass, shares and times as medians over
// passes.
func (b *Bench) fleetLayers(s *samples, untraced, traced []*fleetPass) {
	var st autoconfig.PlannerStats
	var ticks int64
	for _, r := range traced[0].runs {
		for _, j := range r.c.Jobs {
			js := j.Mgr.Plan.Stats()
			st.Sweeps += js.Sweeps
			st.CostHits += js.CostHits
			st.CostMisses += js.CostMisses
			st.CostComputes += js.CostComputes
			st.SimAnchorRuns += js.SimAnchorRuns
			st.DecisionHits += js.DecisionHits
			st.DecisionMisses += js.DecisionMisses
		}
		ticks += r.met.Snapshot(obs.WallOnly).Histograms["wall.arbiter.tick_us"].Count
	}
	b.plannerCounts(st)
	b.Set("fleet.arbiter_ticks", float64(ticks), "count")

	passWall := func(p *fleetPass) float64 {
		var w float64
		for _, r := range p.runs {
			w += seconds(r.wall)
		}
		return w
	}
	var walls, sweepFrac, arbFrac, resid, sweepBusy, arbBusy, tickMax []float64
	for _, p := range traced {
		var sw, ab, tmax float64
		for _, r := range p.runs {
			snap := r.met.Snapshot(obs.WallOnly)
			hs := snap.Histograms["wall.planner.sweep_us"]
			ha := snap.Histograms["wall.arbiter.tick_us"]
			sw += hs.Mean * float64(hs.Count) / 1e6
			ab += ha.Mean * float64(ha.Count) / 1e6
			if ha.Max > tmax {
				tmax = ha.Max
			}
		}
		w := passWall(p)
		walls = append(walls, w)
		sweepBusy = append(sweepBusy, sw)
		arbBusy = append(arbBusy, ab)
		tickMax = append(tickMax, tmax/1e3)
		sweepFrac = append(sweepFrac, sw/w)
		arbFrac = append(arbFrac, ab/w)
		resid = append(resid, (w-sw-ab)/w)
	}
	b.Set("scenario.parse_ms", median(s.parse)*1e3, "ms")
	b.Set("scenario.compile_ms", median(s.compile)*1e3, "ms")
	b.Set("scenario.run_s", median(walls)/float64(len(traced[0].runs)), "s")
	b.Set("autoconfig.sweep_busy_s", median(sweepBusy), "s")
	b.Set("autoconfig.sweep_frac", median(sweepFrac), "frac")
	b.Set("fleet.arbiter_busy_ms", median(arbBusy)*1e3, "ms")
	b.Set("fleet.arbiter_tick_max_ms", median(tickMax), "ms")
	b.Set("fleet.arbiter_frac", median(arbFrac), "frac")
	b.Set("manager.residual_frac", median(resid), "frac")
	var base []float64
	for _, p := range untraced {
		base = append(base, passWall(p))
	}
	b.Set("obs.overhead_frac", overhead(base, walls), "frac")
	b.Note("per-layer counts and busy times are summed over a pass of %d panel members", len(traced[0].runs))
}

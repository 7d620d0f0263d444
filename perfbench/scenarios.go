package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/restart"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/scenarios"
)

// chaosFile is the scenario behind chaos-cold and chaos-warm, and the
// reference job of the sweep probes on every workload.
const chaosFile = "chaos-stress.yaml"

// fleetPanel is how many replays one multi-job run makes. One fleet
// replay's host time moves by up to a factor of three between market
// seeds, so every workload seed replays the same panel of markets and a
// run reports the mean over it.
const fleetPanel = 8

// smallHorizon replaces a single-job scenario's horizon under
// Options.Small; multi-job keeps its horizon, which its scripted events
// need, and shrinks to a one-member panel instead.
const smallHorizon = 2 * simtime.Hour

// reseed makes the workload seed's inputs from a parsed scenario: it
// shifts the price stream and the stream that picks preemption victims
// (a scenario that derives its victim stream gets an explicit one).
// Seed 0 leaves the committed file exactly as written.
//
// The job calibration, market, manager and chaos streams stay as
// committed: the calibration moves the cost of each planner sweep, and
// the others the fleet sizes the run visits, and with them the
// planner's cold sweeps (chaos-stress: 82–104 sweeps over
// seeds 0–7 with every stream shifted, 73–92 over seeds 1–5 with the
// manager and price streams shifted) and the run's host time, by as
// much as any change to the code would. With prices and victims shifted
// the sweeps stay within 86–94 (seeds 1–5), so the seed varies the
// inputs and the decisions made on them, not the amount of work.
func reseed(sc *scenario.Scenario, seed int64) {
	if seed == 0 {
		return
	}
	shift := func(s *int64) {
		if *s == 0 {
			*s = 1
		}
		*s += seed * 1_000_003
	}
	shift(&sc.Prices.Seed)
	if sc.Fleet != nil {
		shift(&sc.Fleet.VictimSeed)
	} else {
		shift(&sc.Run.VictimSeed)
	}
}

// samples collects the per-iteration figures of one run.
type samples struct {
	setup, parse, compile []float64 // seconds
	wall                  []float64 // seconds
	mem                   []memUse
}

// parseScenario reads a committed scenario and reseeds it.
func (b *Bench) parseScenario(file string, seed int64, s *samples) (*scenario.Scenario, error) {
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		return nil, err
	}
	end := b.spans.Begin("scenario.parse")
	t0 := time.Now()
	sc, err := scenario.Parse(data)
	if err == nil {
		reseed(sc, seed)
	}
	d := time.Since(t0)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if b.Opts.Small && sc.Fleet == nil {
		sc.Run.Horizon = smallHorizon
	}
	s.parse = append(s.parse, seconds(d))
	return sc, nil
}

// compileSingle parses and compiles a single-job scenario; the pair is
// one set-up.
func (b *Bench) compileSingle(file string, seed int64, s *samples) (*scenario.Compiled, error) {
	sc, err := b.parseScenario(file, seed, s)
	if err != nil {
		return nil, err
	}
	end := b.spans.Begin("scenario.compile")
	t0 := time.Now()
	c, err := scenario.Compile(sc)
	d := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	s.compile = append(s.compile, seconds(d))
	s.setup = append(s.setup, s.parse[len(s.parse)-1]+seconds(d))
	return c, nil
}

// minSetups is how many set-ups a run times at least, so setup_s is a
// median even when only one or two timed iterations fit the budget.
const minSetups = 9

// padSetups repeats set-up until n have been timed.
func (b *Bench) padSetups(s *samples, n int, setup func() error) error {
	for len(s.setup) < n {
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

// simOutcome is the simulated result of one single-job run: exact, so
// every replay of the same inputs must reproduce it bit for bit.
type simOutcome struct {
	Stats        manager.Stats `json:"stats"`
	DowntimeFrac float64       `json:"downtime_frac"`
}

func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(data)
}

// checkReport applies the per-run checks every scenario report must
// pass, and the outcome check against the first run of the workload.
func (b *Bench) checkReport(what string, violations []string, got, want string) {
	b.Check(len(violations) == 0, "%s: report violations %v", what, violations)
	b.Check(got == want, "%s: simulated stats differ from the workload's first run:\n got  %s\n want %s", what, got, want)
}

// plantFault corrupts a stats digest when the tests ask for it.
func (b *Bench) plantFault(kind, d string) string {
	if b.Opts.Fault == kind {
		return d + " (planted)"
	}
	return d
}

// loopUntil calls iter at least once, and again while a call as long as
// the last one would still end within the budget, so a run of long
// iterations does not overrun its budget by most of one.
func (b *Bench) loopUntil(budget time.Duration, iter func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := iter(i); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

func (b *Bench) budget() time.Duration {
	return time.Duration(b.Opts.Seconds * float64(time.Second))
}

// singleRun is one timed Compiled.Run with everything the checks and
// the per-layer figures need. Only traced runs keep the compiled
// scenario and its result: an untraced run must not hold a planner's
// caches alive into the next run's memory figures.
type singleRun struct {
	c          *scenario.Compiled
	res        *scenario.Result
	wall       time.Duration
	mem        memUse
	sim        simOutcome
	outcome    string
	violations []string
	met        *obs.Metrics
}

// runSingle times c.Run(stateDir). A traced run also attaches a metrics
// registry, so the planner's own sweep histogram is filled.
func (b *Bench) runSingle(c *scenario.Compiled, stateDir string, traced bool) (*singleRun, error) {
	r := &singleRun{c: c}
	if traced {
		r.met = obs.NewMetrics()
		c.Observe(nil, r.met)
	}
	end := func() {}
	if traced {
		end = b.spans.Begin("scenario.run")
	}
	mem := startMem()
	t0 := time.Now()
	res, err := c.Run(stateDir)
	r.wall = time.Since(t0)
	r.mem = mem.Stop()
	end()
	if err != nil {
		return nil, err
	}
	r.sim = simOutcome{Stats: res.Stats, DowntimeFrac: res.Report.DowntimeFrac}
	r.outcome = digest(r.sim)
	r.violations = res.Report.Violations
	if traced {
		r.res = res
	} else {
		r.c = nil
	}
	return r, nil
}

// reportSim prints the exact simulated end-to-end figures of a
// single-job run.
func (b *Bench) reportSim(o simOutcome) {
	st := o.Stats
	b.Set("sim_examples", st.Examples, "examples")
	if st.Examples > 0 {
		b.Set("sim_dollars_per_kex", st.DollarsSpent/st.Examples*1000, "$/kex")
	}
	b.Set("sim_downtime_frac", o.DowntimeFrac, "frac")
}

// reportEndToEnd sets the three end-to-end metrics from a run's
// samples, given its wall_s (see bestWall) and alloc_mb (see leastAlloc).
func (b *Bench) reportEndToEnd(s *samples, wall, alloc float64) {
	b.Set("wall_s", wall, "s")
	b.Set("setup_s", median(s.setup), "s")
	b.reportMem(alloc, s.mem)
	b.Note("samples: %d timed iterations, %d set-ups; iteration wall min %.4g median %.4g max %.4g s",
		len(s.wall), len(s.setup), quantile(s.wall, 0), median(s.wall), quantile(s.wall, 1))
}

// runChaosCold replays chaos-stress on a freshly compiled (cold)
// planner each iteration.
func runChaosCold(b *Bench) error {
	var s samples
	seed := b.Opts.Seed
	setup := func() error { _, err := b.compileSingle(chaosFile, seed, &s); return err }
	// Only two or three iterations fit the budget, so half the padding
	// set-ups come after them: the median then samples the host's speed
	// over the whole run, not only its first second.
	if err := b.padSetups(&s, minSetups/2, setup); err != nil {
		return err
	}
	var want string
	iter := func(traced bool) (*singleRun, error) {
		c, err := b.compileSingle(chaosFile, seed, &s)
		if err != nil {
			return nil, err
		}
		r, err := b.runSingle(c, "", traced)
		b.Attempt(err)
		if err != nil {
			return nil, nil
		}
		if want == "" {
			want = r.outcome
		}
		b.checkReport("chaos-cold", r.violations, b.plantFault("stats", r.outcome), want)
		if !traced {
			s.wall = append(s.wall, seconds(r.wall))
			s.mem = append(s.mem, r.mem)
		}
		return r, nil
	}
	if !b.Opts.Trace {
		first, err := untracedPasses(b, iter)
		if err != nil {
			return err
		}
		if err := b.padSetups(&s, minSetups, setup); err != nil {
			return err
		}
		b.reportSim(first.sim)
		b.reportEndToEnd(&s, bestWall(s.wall), leastAlloc(s.mem))
		return nil
	}
	untraced, traced, err := tracePasses(b, iter)
	if err != nil {
		return err
	}
	if err := b.padSetups(&s, minSetups, setup); err != nil {
		return err
	}
	c := traced[0].c
	// No state I/O happens inside a cold Run; the probe times saving
	// and reloading the planner state the run leaves behind.
	if _, err := b.probeState("", plannerSections(c), restartSections(c.Job.Planner())); err != nil {
		return err
	}
	b.reportSim(traced[0].sim)
	b.singleLayers(&s, untraced, traced, 0)
	return b.probeLayers(c, singlePricer(traced[0]), true)
}

// runChaosWarm resumes chaos-stress from a planner state written by one
// cold run during set-up: a kill-and-resume manager restart. Each timed
// iteration compiles afresh and gets its own copy of the state, because
// Run rewrites it.
func runChaosWarm(b *Bench) error {
	var s samples
	seed := b.Opts.Seed
	setup := func() error { _, err := b.compileSingle(chaosFile, seed, &s); return err }
	if err := b.padSetups(&s, minSetups, setup); err != nil {
		return err
	}
	work, err := os.MkdirTemp(b.Opts.OutDir, "chaos-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fixture := filepath.Join(work, "fixture")

	// The fixture is built by the code under test, with a separate
	// sample set so it stays out of setup_s.
	var fs samples
	fixStart := time.Now()
	fc, err := b.compileSingle(chaosFile, seed, &fs)
	if err != nil {
		return err
	}
	cold, err := b.runSingle(fc, fixture, false)
	b.Attempt(err)
	if err != nil {
		return err
	}
	b.Set("fixture_build_s", seconds(time.Since(fixStart)), "s")
	b.Check(len(cold.violations) == 0, "chaos-warm fixture: report violations %v", cold.violations)

	var want string
	var dollarDiff float64
	defer func() {
		if dollarDiff > 0 {
			b.Note("chaos-warm: dollar figures differ from the cold run by up to %.3g relative (rounding of the warm meter)", dollarDiff)
		}
	}()
	iter := func(traced bool) (*singleRun, error) {
		c, err := b.compileSingle(chaosFile, seed, &s)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(work, "run")
		if err := copyState(fixture, dir); err != nil {
			return nil, err
		}
		r, err := b.runSingle(c, dir, traced)
		os.RemoveAll(dir)
		b.Attempt(err)
		if err != nil {
			return nil, nil
		}
		if want == "" {
			want = r.outcome
		}
		b.checkReport("chaos-warm", r.violations, b.plantFault("stats", r.outcome), want)
		dollarDiff = math.Max(dollarDiff, b.checkWarm(r.sim, cold.sim))
		if !traced {
			s.wall = append(s.wall, seconds(r.wall))
			s.mem = append(s.mem, r.mem)
		}
		return r, nil
	}
	if !b.Opts.Trace {
		first, err := untracedPasses(b, iter)
		if err != nil {
			return err
		}
		b.reportSim(first.sim)
		b.reportEndToEnd(&s, bestWall(s.wall), leastAlloc(s.mem))
		return nil
	}
	untraced, traced, err := tracePasses(b, iter)
	if err != nil {
		return err
	}
	// Load the fixture the way Run does, then save it back: the state
	// I/O inside every warm Run.
	stateIO, err := b.probeState(fixture, warmSections(fc), nil)
	if err != nil {
		return err
	}
	b.reportSim(traced[0].sim)
	b.singleLayers(&s, untraced, traced, stateIO)
	return b.probeLayers(fc, singlePricer(traced[0]), true)
}

// untracedPasses runs iter until the budget is spent and returns the
// first completed run.
func untracedPasses[T any](b *Bench, iter func(traced bool) (*T, error)) (*T, error) {
	var first *T
	err := b.loopUntil(b.budget(), func(int) error {
		r, err := iter(false)
		if first == nil {
			first = r
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if first == nil {
		return nil, fmt.Errorf("%s: no run completed", b.Opts.Workload)
	}
	return first, nil
}

// tracePasses alternates untraced and traced passes until the budget
// is spent, at least one of each, so the tracing overhead compares
// passes made under the same conditions.
func tracePasses[T any](b *Bench, iter func(traced bool) (*T, error)) ([]*T, []*T, error) {
	var untraced, traced []*T
	err := b.loopUntil(b.budget(), func(int) error {
		r, err := iter(false)
		if err != nil {
			return err
		}
		if r != nil {
			untraced = append(untraced, r)
		}
		end := b.spans.Begin("pass")
		r, err = iter(true)
		end()
		if r != nil {
			traced = append(traced, r)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return nil, nil, fmt.Errorf("%s: no traced run completed", b.Opts.Workload)
	}
	return untraced, traced, nil
}

// overhead is the tracing overhead: median traced over median untraced
// host time, minus one.
func overhead(untraced, traced []float64) float64 {
	return median(traced)/median(untraced) - 1
}

// restartSections wraps one planner as the state Run saves.
func restartSections(pl *autoconfig.Planner) restart.Sections {
	return restart.Sections{restart.SectionPlanner: pl}
}

// plannerSections returns a fresh planner section for c's job.
func plannerSections(c *scenario.Compiled) func() restart.Sections {
	return func() restart.Sections {
		return restart.Sections{restart.SectionPlanner: autoconfig.NewPlanner(c.Job.Inputs())}
	}
}

// singlePricer prices the morphs of a single-job run with the model the
// manager uses.
func singlePricer(r *singleRun) pricer {
	var p pricer
	p.add(restart.NewModel(r.c.Job.Spec, r.c.TB.Cluster), morphPairs(r.res.Points))
	return p
}

// singleLayers derives the per-layer figures of traced single-job runs
// from the planner's counters and its own sweep histogram. stateIO is
// the state load and save time inside each run.
func (b *Bench) singleLayers(s *samples, untraced, traced []*singleRun, stateIO time.Duration) {
	st := traced[0].c.Job.Planner().Stats()
	b.plannerCounts(st)
	var walls, sweepBusy, sweepFrac, sweepMean, sweepMax, resid, reportMs []float64
	for _, r := range traced {
		w := seconds(r.wall)
		h := r.met.Snapshot(obs.WallOnly).Histograms["wall.planner.sweep_us"]
		busy := h.Mean * float64(h.Count) / 1e6
		walls = append(walls, w)
		sweepBusy = append(sweepBusy, busy)
		sweepFrac = append(sweepFrac, busy/w)
		resid = append(resid, (w-busy-seconds(stateIO))/w)
		sweepMean = append(sweepMean, h.Mean/1e3)
		sweepMax = append(sweepMax, h.Max/1e3)
		end := b.spans.Begin("scenario.report")
		t0 := time.Now()
		_, err := r.res.Report.JSON()
		reportMs = append(reportMs, seconds(time.Since(t0))*1e3)
		end()
		b.Attempt(err)
	}
	b.Set("scenario.parse_ms", median(s.parse)*1e3, "ms")
	b.Set("scenario.compile_ms", median(s.compile)*1e3, "ms")
	b.Set("scenario.run_s", median(walls), "s")
	b.Set("scenario.report_ms", median(reportMs), "ms")
	b.Set("autoconfig.sweep_busy_s", median(sweepBusy), "s")
	b.Set("autoconfig.sweep_mean_ms", median(sweepMean), "ms")
	b.Set("autoconfig.sweep_max_ms", median(sweepMax), "ms")
	b.Set("autoconfig.sweep_frac", median(sweepFrac), "frac")
	b.Set("manager.residual_s", median(walls)*median(resid), "s")
	b.Set("manager.residual_frac", median(resid), "frac")
	b.Set("fleet.arbiter_ticks", 0, "count")
	b.Set("fleet.arbiter_frac", 0, "frac")
	var base []float64
	for _, r := range untraced {
		base = append(base, seconds(r.wall))
	}
	b.Set("obs.overhead_frac", overhead(base, walls), "frac")
}

// plannerCounts reports a planner's cache counters.
func (b *Bench) plannerCounts(st autoconfig.PlannerStats) {
	b.Set("autoconfig.sweeps", float64(st.Sweeps), "count")
	dec := st.DecisionHits + st.DecisionMisses
	ratio := 0.0
	if dec > 0 {
		ratio = float64(st.DecisionHits) / float64(dec)
	}
	b.Set("autoconfig.decision_hit_ratio", ratio, "ratio")
	b.Set("autoconfig.cost_hit_ratio", st.HitRate(), "ratio")
	b.Set("autoconfig.stagecost_builds", float64(st.CostComputes), "count")
	b.Set("autoconfig.sim_anchor_runs", float64(st.SimAnchorRuns), "count")
}

// morphPairs lists the (old, new) assignment of every morph in a
// timeline.
func morphPairs(points []manager.TimelinePoint) [][2]restart.Assignment {
	var pairs [][2]restart.Assignment
	var prev restart.Assignment
	for _, p := range points {
		cur := restart.Assignment{Stages: p.Config.Stages, D: p.Config.D}
		if p.Event == "morph" && !prev.Empty() && !cur.Empty() {
			pairs = append(pairs, [2]restart.Assignment{prev, cur})
		}
		if !cur.Empty() {
			prev = cur
		}
	}
	return pairs
}

// dollarTolerance bounds the relative difference allowed between a
// resumed run's dollar figures and the cold run's. A warm meter carries
// the pre-restart bill and reports this run's spend as the cumulative
// bill minus that, which rounds differently in the last bits.
const dollarTolerance = 1e-9

// checkWarm holds a resumed run to the cold run it resumed from:
// warmth changes cost, never decisions, so every non-dollar figure
// must be identical and the dollar figures equal up to rounding. It
// returns the largest relative dollar difference.
func (b *Bench) checkWarm(warm, cold simOutcome) float64 {
	w, c := warm.Stats, cold.Stats
	dw := []float64{w.DollarsSpent, w.DollarsCompute, w.DollarsReconfig, w.DollarsIdle}
	dc := []float64{c.DollarsSpent, c.DollarsCompute, c.DollarsReconfig, c.DollarsIdle}
	var worst float64
	for i := range dw {
		if d := math.Abs(dw[i]-dc[i]) / math.Max(math.Abs(dc[i]), 1e-300); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	w.DollarsSpent, w.DollarsCompute, w.DollarsReconfig, w.DollarsIdle = 0, 0, 0, 0
	c.DollarsSpent, c.DollarsCompute, c.DollarsReconfig, c.DollarsIdle = 0, 0, 0, 0
	b.Check(w == c && warm.DowntimeFrac == cold.DowntimeFrac,
		"chaos-warm: resumed run decided differently from the cold run:\n warm %s\n cold %s",
		digest(warm.Stats), digest(cold.Stats))
	b.Check(worst <= dollarTolerance, "chaos-warm: dollars differ from the cold run by %.3g relative", worst)
	return worst
}

// warmSections returns fresh carriers for the sections Compiled.Run
// loads from a state directory.
func warmSections(c *scenario.Compiled) func() restart.Sections {
	return func() restart.Sections {
		sec := restart.Sections{restart.SectionPlanner: autoconfig.NewPlanner(c.Job.Inputs())}
		if c.Opts.Prices != nil {
			sec[restart.SectionMeter] = price.NewMeter(c.Opts.Prices)
		}
		return sec
	}
}

// copyState copies the planner state file into a fresh directory.
func copyState(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	src, err := os.Open(filepath.Join(from, restart.StateFile))
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(to, restart.StateFile))
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

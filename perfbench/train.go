package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/restart"
)

// The train-morph workload trains the Figure 9 char-GPT for real at
// P2×D2, checkpoints, resumes at P3×D1 and trains on — the mid-run
// morph of Figure 9 at a batch small enough for many steps per run.
const (
	trainBatch = 32
	trainMicro = 8
	trainLR    = 3e-3
	// trainSteps is the steps on each side of the morph.
	trainStepsEach  = 12
	trainStepsSmall = 3
	evalBatches     = 2
)

// charGPT is the Figure 9/10 character-level transformer.
func charGPT() nn.GPTConfig {
	return nn.GPTConfig{Vocab: 24, Dim: 24, SeqLen: 12, Layers: 4, MLPMult: 2, Seed: 99}
}

// trainDataSeed maps the workload seed to the corpus seed; seed 0 is
// Figure 9's corpus.
func trainDataSeed(seed int64) int64 { return 31 + seed }

func (b *Bench) trainSteps() int {
	if b.Opts.Small {
		return trainStepsSmall
	}
	return trainStepsEach
}

func trainConfig(p, d int, dataSeed int64) engine.Config {
	return engine.Config{GPT: charGPT(), P: p, D: d, MicroBatch: trainMicro,
		BatchSize: trainBatch, LR: trainLR, DataSeed: dataSeed}
}

// unitRun is one timed training unit: New at P2×D2, steps, Save,
// Resume at P3×D1, steps, Eval.
type unitRun struct {
	newT, save, resume, eval time.Duration
	steps                    []time.Duration
	losses                   []float64
	evalLoss                 float64
	wall                     time.Duration // everything after New
	mem                      memUse
	manifest                 checkpoint.Manifest
	ckptBytes                int64
}

// trainUnit runs one unit of steps on each side of the morph.
func (b *Bench) trainUnit(dataSeed int64, steps int) (*unitRun, error) {
	u := &unitRun{}
	end := b.spans.Begin("engine.new")
	t0 := time.Now()
	e, err := engine.New(trainConfig(2, 2, dataSeed))
	u.newT = time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	mem := startMem()
	start := time.Now()
	step := func(e *engine.Engine) {
		end := b.spans.Begin("engine.step")
		t0 := time.Now()
		u.losses = append(u.losses, e.Step())
		u.steps = append(u.steps, time.Since(t0))
		end()
	}
	for i := 0; i < steps; i++ {
		step(e)
	}
	store := checkpoint.NewMemStore()
	end = b.spans.Begin("engine.save")
	t0 = time.Now()
	err = e.Save(store)
	u.save = time.Since(t0)
	end()
	if err != nil {
		mem.Stop()
		return nil, err
	}
	end = b.spans.Begin("engine.resume")
	t0 = time.Now()
	e, err = engine.Resume(trainConfig(3, 1, dataSeed), store)
	u.resume = time.Since(t0)
	end()
	if err != nil {
		mem.Stop()
		return nil, err
	}
	for i := 0; i < steps; i++ {
		step(e)
	}
	end = b.spans.Begin("engine.eval")
	t0 = time.Now()
	u.evalLoss = e.Eval(evalBatches)
	u.eval = time.Since(t0)
	end()
	u.wall = time.Since(start)
	u.mem = mem.Stop()
	man, ok, err := store.Latest()
	if err != nil || !ok {
		return nil, fmt.Errorf("engine: checkpoint manifest missing (%v)", err)
	}
	u.manifest = man
	u.ckptBytes = store.BytesWritten()
	return u, nil
}

// straightLosses trains the unmorphed P2×D2 reference.
func straightLosses(dataSeed int64, steps int) ([]float64, error) {
	e, err := engine.New(trainConfig(2, 2, dataSeed))
	if err != nil {
		return nil, err
	}
	return e.Losses(steps), nil
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// runTrainMorph is the real-training workload.
func runTrainMorph(b *Bench) error {
	dataSeed := trainDataSeed(b.Opts.Seed)
	steps := b.trainSteps()
	var units []*unitRun
	var setup []float64
	iter := func(traced bool) (*unitRun, error) {
		u, err := b.trainUnit(dataSeed, steps)
		b.Attempt(err)
		if err != nil {
			return nil, nil
		}
		setup = append(setup, seconds(u.newT))
		b.Check(allFinite(u.losses...) && allFinite(u.evalLoss), "train-morph: non-finite loss")
		if len(units) > 0 {
			// Same seed, same code: the trajectory repeats bit for bit.
			d := maxAbsDiff(u.losses, units[0].losses)
			b.Check(d == 0, "train-morph: loss trajectory differs between units of one run (max |Δ| %.3g)", d)
		}
		if !traced {
			units = append(units, u)
		}
		return u, nil
	}
	// engine.New is the set-up; pad it to a median of several.
	for len(setup) < minSetups {
		t0 := time.Now()
		if _, err := engine.New(trainConfig(2, 2, dataSeed)); err != nil {
			return err
		}
		setup = append(setup, seconds(time.Since(t0)))
	}
	if b.Opts.Trace {
		untraced, traced, err := tracePasses(b, iter)
		if err != nil {
			return err
		}
		if err := b.checkMorph(dataSeed, steps, untraced[0].losses); err != nil {
			return err
		}
		return b.trainLayers(untraced, traced)
	}
	if _, err := untracedPasses(b, iter); err != nil {
		return err
	}
	if err := b.checkMorph(dataSeed, steps, units[0].losses); err != nil {
		return err
	}
	var walls, stepMs []float64
	var mems []memUse
	for _, u := range units {
		walls = append(walls, seconds(u.wall))
		mems = append(mems, u.mem)
		for _, d := range u.steps {
			stepMs = append(stepMs, seconds(d)*1e3)
		}
	}
	wall := bestWall(walls)
	b.Set("wall_s", wall, "s")
	b.Set("setup_s", median(setup), "s")
	b.reportMem(leastAlloc(mems), mems)
	b.Set("train_examples_per_s", float64(2*steps*trainBatch)/median(walls), "examples/s")
	b.Set("step_p50_ms", median(stepMs), "ms")
	b.Note("step_p50_ms over %d steps", len(stepMs))
	if p, beyond, ok := tailPercentile(len(stepMs)); ok {
		b.Set("step_tail_ms", quantile(stepMs, p/100), "ms")
		b.Note("step_tail_ms is p%g over %d steps (%d beyond it)", p, len(stepMs), beyond)
	}
	b.Note("samples: %d timed units of %d steps, %d set-ups; unit wall min %.4g median %.4g max %.4g s",
		len(units), 2*steps, len(setup), wall, median(walls), quantile(walls, 1))
	return nil
}

// checkMorph compares the morphed trajectory with unmorphed P2×D2
// runs. Sync-SGD morphing preserves the trajectory up to rounding, so
// the morphed losses must stay within the spread between two data
// seeds of the same-seed reference; a kernel that reorders sums moves
// them only at rounding.
func (b *Bench) checkMorph(dataSeed int64, steps int, morphed []float64) error {
	ref, err := straightLosses(dataSeed, 2*steps)
	if err != nil {
		return err
	}
	other, err := straightLosses(dataSeed+1, 2*steps)
	if err != nil {
		return err
	}
	spread := maxAbsDiff(ref, other)
	if b.Opts.Fault == "loss" {
		morphed = append([]float64(nil), morphed...)
		morphed[len(morphed)-1]++
	}
	diff := maxAbsDiff(morphed, ref)
	b.Note("morph check: max |Δloss| morphed vs straight %.3g, across data seeds %.3g", diff, spread)
	b.Check(allFinite(ref...) && spread > 0, "train-morph: reference losses degenerate (spread %v)", spread)
	b.Check(diff <= spread, "train-morph: morphed trajectory off the unmorphed one by %.3g, beyond the data-seed spread %.3g", diff, spread)
	return nil
}

// engineLayers reports the engine and checkpoint figures of units.
func (b *Bench) engineLayers(units []*unitRun) {
	var busy, save, resume, eval []float64
	for _, u := range units {
		var s time.Duration
		for _, d := range u.steps {
			s += d
		}
		busy = append(busy, seconds(s))
		save = append(save, seconds(u.save)*1e3)
		resume = append(resume, seconds(u.resume)*1e3)
		eval = append(eval, seconds(u.eval)*1e3)
	}
	b.Set("engine.step_busy_s", median(busy), "s")
	b.Set("engine.save_ms", median(save), "ms")
	b.Set("engine.resume_ms", median(resume), "ms")
	b.Set("engine.eval_ms", median(eval), "ms")
	b.Set("checkpoint.bytes", float64(units[0].ckptBytes), "bytes")
}

// trainLayers reports train-morph's per-layer figures. Layers the
// workload does not drive get their probes on the reference scenario.
func (b *Bench) trainLayers(untraced, traced []*unitRun) error {
	b.engineLayers(traced)
	var base, walls []float64
	for _, u := range untraced {
		base = append(base, seconds(u.wall))
	}
	for _, u := range traced {
		walls = append(walls, seconds(u.wall))
	}
	b.Set("obs.overhead_frac", overhead(base, walls), "frac")

	var s samples
	c, err := b.compileSingle(chaosFile, b.Opts.Seed, &s)
	if err != nil {
		return err
	}
	if err := b.padSetups(&s, minSetups, func() error { _, err := b.compileSingle(chaosFile, b.Opts.Seed, &s); return err }); err != nil {
		return err
	}
	b.Set("scenario.parse_ms", median(s.parse)*1e3, "ms")
	b.Set("scenario.compile_ms", median(s.compile)*1e3, "ms")
	// No planner runs in this workload: its counters and shares are 0.
	b.plannerCounts(c.Job.Planner().Stats())
	b.Set("autoconfig.sweep_frac", 0, "frac")
	b.Set("manager.residual_frac", 0, "frac")
	b.Set("fleet.arbiter_ticks", 0, "count")
	b.Set("fleet.arbiter_frac", 0, "frac")

	// State probe on the reference planner after one decision.
	pl := c.Job.Planner()
	if _, err := pl.Best(c.Scenario.Run.TargetGPUs); err != nil {
		return err
	}
	if _, err := b.probeState("", plannerSections(c), restartSections(pl)); err != nil {
		return err
	}
	// The morph this workload makes, priced from its checkpoint.
	u := traced[0]
	rm := restart.NewModelFromManifest(u.manifest, hw.SpotCluster(hw.NC6v3, 4))
	n := u.manifest.NumLayers
	var p pricer
	p.add(rm, [][2]restart.Assignment{{
		{Stages: restart.EvenStages(n, 2), D: 2},
		{Stages: restart.EvenStages(n, 3), D: 1},
	}})
	return b.probeLayers(c, p, false)
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/nn"
	"repro/internal/restart"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Layer probes time calls into one layer's public functions on fixed
// inputs. Every traced run makes them, so each per-layer time is
// measured on every workload; on a workload that does not drive the
// layer the figure is a reference for it, and its end-to-end metrics
// are predicted not to move with it.

// probeTime is how long each per-call probe keeps repeating.
const probeTime = 300 * time.Millisecond

// timeCalls repeats call in rounds of n calls, for at least minRounds
// rounds and until probeTime is spent, and returns the median host
// time of one call. Each round is one span; n keeps a round of cheap
// calls well above timer resolution.
func (b *Bench) timeCalls(span string, n, minRounds int, call func() error) (time.Duration, error) {
	var per []float64
	start := time.Now()
	for len(per) < minRounds || time.Since(start) < probeTime {
		end := b.spans.Begin(span)
		t0 := time.Now()
		var err error
		for i := 0; i < n && err == nil; i++ {
			err = call()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		end()
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(per)), nil
}

// pricer is a set of reconfigurations to price with the restart model
// that prices them in the run.
type pricer struct {
	rm    []*restart.Model
	pairs [][2]restart.Assignment
}

func (p *pricer) add(rm *restart.Model, pairs [][2]restart.Assignment) {
	for range pairs {
		p.rm = append(p.rm, rm)
	}
	p.pairs = append(p.pairs, pairs...)
}

// probeLayers makes the probes every traced run shares. ref is
// chaos-stress compiled at the workload seed; engine adds a short
// training unit for workloads that do not train.
func (b *Bench) probeLayers(ref *scenario.Compiled, p pricer, engine bool) error {
	if err := b.probeSweep(ref); err != nil {
		return err
	}
	if err := b.probePrice(p); err != nil {
		return err
	}
	if err := b.probeNN(); err != nil {
		return err
	}
	if engine {
		u, err := b.trainUnit(trainDataSeed(b.Opts.Seed), b.trainSteps())
		if err != nil {
			return err
		}
		b.engineLayers([]*unitRun{u})
	}
	return nil
}

// interFlags marks the stage boundaries that cross nodes, as the sweep
// does for a candidate.
func interFlags(p, gpusPerNode int) []bool {
	flags := make([]bool, p)
	for i := 0; i < p-1; i++ {
		flags[i] = gpusPerNode <= 1 || (i+1)%gpusPerNode == 0
	}
	return flags
}

// probeSweep times one cold sweep of ref's job at its target fleet
// size, then StageCosts and EstimateMakespan on every candidate the
// sweep returned, and simulates the best candidate for its bubble.
func (b *Bench) probeSweep(ref *scenario.Compiled) error {
	in := ref.Job.Inputs()
	g := ref.Scenario.Run.TargetGPUs
	var choices []autoconfig.Choice
	sweep, err := b.timeCalls("autoconfig.sweep", 1, 1, func() error {
		var err error
		choices, err = autoconfig.Sweep(in, g)
		return err
	})
	if err != nil {
		return err
	}
	b.Set("autoconfig.cold_sweep_ms", float64(sweep)/1e6, "ms")

	costs := make([][]sim.StageCosts, len(choices))
	stage, err := b.timeCalls("calibrate.stagecosts", 10, 1, func() error {
		for i, c := range choices {
			var err error
			costs[i], err = in.Params.StageCosts(in.Spec, c.Stages, c.M, c.D, interFlags(c.P, in.GPUsPerNode))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.Set("calibrate.stagecosts_us", float64(stage)/1e3/float64(len(choices)), "us")

	cfg := func(i int) sim.Config {
		return sim.Config{Depth: choices[i].P, Micros: choices[i].Nm, Policy: schedule.Varuna, Costs: costs[i]}
	}
	est, err := b.timeCalls("sim.estimate", 1, 1, func() error {
		for i, c := range choices {
			e, err := sim.EstimateMakespan(cfg(i))
			if err != nil {
				return err
			}
			// The probe rebuilds each candidate from public parts; it
			// must land on the sweep's own estimate.
			if e != c.Est {
				return fmt.Errorf("sim.EstimateMakespan P=%d D=%d m=%d: %v, sweep said %v", c.P, c.D, c.M, e, c.Est)
			}
		}
		return nil
	})
	b.Attempt(err)
	if err != nil {
		return nil
	}
	b.Set("sim.estimate_us", float64(est)/1e3/float64(len(choices)), "us")
	b.Note("probe: %d candidates at %d GPUs", len(choices), g)

	best := 0
	for i, c := range choices {
		if c.TotalExPerSec() > choices[best].TotalExPerSec() {
			best = i
		}
	}
	end := b.spans.Begin("sim.run")
	res, err := sim.Run(cfg(best))
	end()
	if err != nil {
		return err
	}
	b.Set("sim.bubble_frac", res.BubbleFrac, "frac")
	return nil
}

// probePrice times restart.Model.Price over a run's morphs.
func (b *Bench) probePrice(p pricer) error {
	b.Check(len(p.pairs) > 0, "%s: the run made no morph to price", b.Opts.Workload)
	if len(p.pairs) == 0 {
		return nil
	}
	d, err := b.timeCalls("restart.price", 1+1000/len(p.pairs), 1, func() error {
		for i, pr := range p.pairs {
			if c := p.rm[i].Price(pr[0], pr[1], false); c.Total() <= 0 {
				return fmt.Errorf("restart: morph %d priced at %v", i, c.Total())
			}
		}
		return nil
	})
	b.Attempt(err)
	if err != nil {
		return nil
	}
	b.Set("restart.price_us", float64(d)/1e3/float64(len(p.pairs)), "us")
	b.Note("probe: %d morphs priced", len(p.pairs))
	return nil
}

// probeNN times the three matrix kernels on the char-GPT's MLP shapes:
// one micro-batch of activations (m·seq rows) against the up-projection.
func (b *Bench) probeNN() error {
	gpt := charGPT()
	rows, k, n := trainMicro*gpt.SeqLen, gpt.Dim, gpt.Dim*gpt.MLPMult
	rng := rand.New(rand.NewSource(1))
	fill := func(r, c int) *nn.Matrix {
		m := nn.NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	x, w, g := fill(rows, k), fill(k, n), fill(rows, n)
	flops := float64(2 * rows * k * n)
	const batch = 20
	kernels := []struct {
		name string
		call func() *nn.Matrix
		r, c int
	}{
		{"nn.matmul", func() *nn.Matrix { return nn.MatMul(x, w) }, rows, n},
		{"nn.matmul_atb", func() *nn.Matrix { return nn.MatMulATB(x, g) }, k, n},
		{"nn.matmul_abt", func() *nn.Matrix { return nn.MatMulABT(g, w) }, rows, k},
	}
	for _, kn := range kernels {
		d, err := b.timeCalls(kn.name, batch, 1, func() error {
			if out := kn.call(); out.Rows != kn.r || out.Cols != kn.c {
				return fmt.Errorf("%s: got %dx%d, want %dx%d", kn.name, out.Rows, out.Cols, kn.r, kn.c)
			}
			return nil
		})
		b.Attempt(err)
		if err != nil {
			return nil
		}
		us := float64(d) / 1e3
		b.Set(kn.name+"_us", us, "us")
		b.Note("probe: %s %dx%dx%d, %.0f flop per call, %.3f Gflop/s", kn.name, rows, k, n, flops, flops/us/1e3)
	}
	return nil
}

// probeState times SaveSections and LoadSections on planner state.
// With loadFrom set it loads that directory into fresh carriers first
// and saves what it loaded; otherwise it saves src and loads it back.
// It returns the load plus save time.
func (b *Bench) probeState(loadFrom string, fresh func() restart.Sections, src restart.Sections) (time.Duration, error) {
	dir, err := os.MkdirTemp(b.Opts.OutDir, "state-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	save := func() (time.Duration, error) {
		return b.timeCalls("restart.save_sections", 1, stateRounds, func() error { return restart.SaveSections(dir, src) })
	}
	load := func(from string) (time.Duration, error) {
		return b.timeCalls("restart.load_sections", 1, stateRounds, func() error {
			sec := fresh()
			found, err := restart.LoadSections(from, sec)
			if err != nil {
				return err
			}
			for name := range sec {
				if !found[name] {
					return fmt.Errorf("restart: section %s missing from %s", name, from)
				}
			}
			src = sec
			return nil
		})
	}
	var ld, sv time.Duration
	if loadFrom != "" {
		if ld, err = load(loadFrom); err == nil {
			sv, err = save()
		}
	} else {
		if sv, err = save(); err == nil {
			ld, err = load(dir)
		}
	}
	b.Attempt(err)
	if err != nil {
		return 0, nil
	}
	info, err := os.Stat(filepath.Join(dir, restart.StateFile))
	if err != nil {
		return 0, err
	}
	b.Set("restart.state_bytes", float64(info.Size()), "bytes")
	b.Set("restart.state_load_ms", float64(ld)/1e6, "ms")
	b.Set("restart.state_save_ms", float64(sv)/1e6, "ms")
	return ld + sv, nil
}

// stateRounds is how many times the state probe saves and loads at
// least; one save or load of a chaos-stress state takes about 0.6 s.
const stateRounds = 3

// Command varuna-morph replays a spot-VM market against a Varuna job
// and prints the morphing timeline (the Figure 8 scenario): the manager
// grows the fleet when capacity appears, reconfigures on preemption,
// excludes fail-stutter VMs, and checkpoints continuously.
// Reconfiguration downtime is priced by the restart cost model; with
// the default morph-or-hold policy the manager declines morphs whose
// modeled downtime exceeds the discounted throughput gain.
//
// Usage:
//
//	varuna-morph -model GPT2-2.5B -target 150 -hours 24
//	varuna-morph -policy constant          # the paper's flat 4-minute overhead
//	varuna-morph -state /tmp/ckpt          # warm-start/persist the planner cache
//	varuna-morph -prices volatile -objective dollar   # min-$/example on a stochastic curve
//	varuna-morph -prices constant -objective deadline -deadline-target 1.0
//
// With -state, the planner's cost cache and decision memo are loaded
// from <dir>/planner-state.json before the run (if present) and saved
// back after it, alongside the §4.5 checkpoint — a killed-and-restarted
// manager resumes with warm morph decisions instead of a cold re-sweep.
// When prices are on, the cost meter persists in the same file, so the
// resumed run continues the same cumulative bill.
//
// -prices attaches a spot price curve (constant at -dollar, or a
// seeded mean-reverting "volatile" one) and the run reports dollars
// spent by bucket. -objective selects what morph decisions optimize:
// throughput (the default; prices only account), dollar
// (min $/example — idle capacity released, marginal replicas shed
// through spikes), or deadline (-deadline-target million examples by
// the horizon, bought as cheaply as possible).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/autoconfig"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/price"
	"repro/internal/restart"
	"repro/internal/simtime"
	"repro/internal/spot"
)

func main() {
	modelName := flag.String("model", "GPT2-2.5B", "model name")
	target := flag.Int("target", 150, "GPUs the manager keeps requesting")
	hours := flag.Float64("hours", 24, "simulated horizon")
	batch := flag.Int("batch", 8192, "global mini-batch size")
	seed := flag.Int64("seed", 1, "deterministic seed")
	policy := flag.String("policy", "hold", "reconfiguration pricing: hold (morph-or-hold), modeled, constant")
	stateDir := flag.String("state", "", "directory for planner-state persistence (empty disables)")
	prices := flag.String("prices", "off", "spot price curve: off, constant, volatile (mean-reverting, seeded)")
	dollar := flag.Float64("dollar", 2.40, "price level in $/GPU-hour (constant value / volatile mean)")
	objective := flag.String("objective", "throughput", "morph objective: throughput, dollar (min $/example), deadline")
	deadlineTarget := flag.Float64("deadline-target", 1.0, "deadline objective: million examples due by the horizon")
	flag.Parse()

	var spec *model.Spec
	for _, s := range model.Zoo() {
		if s.Name == *modelName {
			spec = s
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "varuna-morph: unknown model %q\n", *modelName)
		os.Exit(1)
	}
	opts := manager.DefaultOptions()
	switch *policy {
	case "hold":
		opts.Policy = manager.PolicyMorphOrHold
	case "modeled":
		opts.Policy = manager.PolicyModeled
	case "constant":
		opts.Policy = manager.PolicyConstant
	default:
		fmt.Fprintf(os.Stderr, "varuna-morph: unknown policy %q (hold, modeled, constant)\n", *policy)
		os.Exit(1)
	}
	horizon := simtime.FromSeconds(*hours * 3600)
	var curve *price.Curve
	switch *prices {
	case "off":
	case "constant":
		curve = price.Constant(*dollar)
	case "volatile":
		var err error
		curve, err = price.MeanReverting(price.MROptions{
			Mean: *dollar, Vol: 0.18, Reversion: 0.12, Horizon: horizon,
		}, *seed+3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "varuna-morph:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "varuna-morph: unknown prices %q (off, constant, volatile)\n", *prices)
		os.Exit(1)
	}
	switch *objective {
	case "throughput":
	case "dollar":
		opts.Objective = autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}
	case "deadline":
		opts.Objective = autoconfig.Objective{
			Kind:           autoconfig.ObjDeadline,
			DeadlineAt:     simtime.Time(horizon),
			TargetExamples: *deadlineTarget * 1e6,
		}
	default:
		fmt.Fprintf(os.Stderr, "varuna-morph: unknown objective %q (throughput, dollar, deadline)\n", *objective)
		os.Exit(1)
	}

	cluster := hw.SpotCluster(hw.NC6v3, *target)
	job, err := core.NewJob(spec, cluster, *batch, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-morph:", err)
		os.Exit(1)
	}
	var meter *price.Meter
	if curve != nil {
		meter = price.NewMeter(curve)
		opts.Meter = meter
	}
	if *stateDir != "" {
		sections := restart.Sections{restart.SectionPlanner: job.Planner()}
		if meter != nil {
			sections[restart.SectionMeter] = meter
		}
		found, err := restart.LoadSections(*stateDir, sections)
		if err != nil {
			fmt.Fprintln(os.Stderr, "varuna-morph:", err)
			os.Exit(1)
		}
		if found[restart.SectionPlanner] {
			fmt.Printf("planner state loaded from %s\n", *stateDir)
		}
		if found[restart.SectionMeter] {
			fmt.Printf("cost meter resumed at $%.2f\n", meter.Total())
		}
	}
	mk := spot.NewMarket(1, *target*4/5, *seed+1)
	mk.Prices = curve
	points, stats, err := job.RunOnSpotMarketOpts(mk, *target, horizon, *seed+2, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-morph:", err)
		os.Exit(1)
	}

	fmt.Printf("%-8s %-6s %-10s %-12s %-10s %-10s %s\n", "time", "GPUs", "config", "total ex/s", "ex/s/GPU", "downtime", "event")
	for _, p := range points {
		cfg, per, down := "-", "-", "-"
		if p.Config.GPUsUsed > 0 {
			cfg = fmt.Sprintf("%dx%d", p.Config.P, p.Config.D)
			per = fmt.Sprintf("%.2f", p.ExPerSec/float64(p.Config.GPUsUsed))
		}
		if p.Downtime > 0 {
			down = p.Downtime.String()
		}
		fmt.Printf("%-8s %-6d %-10s %-12.1f %-10s %-10s %s\n",
			fmt.Sprintf("%.1fh", p.At.Hours()), p.GPUs, cfg, p.ExPerSec, per, down, p.Event)
	}
	fmt.Printf("\n%d mini-batches (%.2fM examples), %d morphs, %d replacements, %d holds, %d preemptions, %d stragglers excluded\n",
		stats.MiniBatches, stats.Examples/1e6, stats.Morphs, stats.Replacements, stats.Holds, stats.Preemptions, stats.StragglersExcluded)
	fmt.Printf("%d checkpoints, %d mini-batches lost to rollbacks, %v downtime (%v reconfiguring)\n",
		stats.Checkpoints, stats.LostMiniBatches, stats.Downtime, stats.MorphDowntime)
	if curve != nil {
		fmt.Printf("dollars: $%.2f total ($%.2f compute, $%.2f reconfig, $%.2f idle) — $%.2f per 1k examples, %d VMs released\n",
			stats.DollarsSpent, stats.DollarsCompute, stats.DollarsReconfig, stats.DollarsIdle,
			1000*stats.DollarsPerExample(), stats.VMsReleased)
	}
	ps := job.Planner().Stats()
	fmt.Printf("planner: %d sweeps, decision memo %d/%d hits, cost cache %.0f%% hit rate (%d hits, %d misses, %d StageCosts builds, %d anchor sims, %d candidates pruned)\n",
		ps.Sweeps, ps.DecisionHits, ps.DecisionHits+ps.DecisionMisses,
		100*ps.HitRate(), ps.CostHits, ps.CostMisses, ps.CostComputes, ps.SimAnchorRuns, ps.CandidatesPruned)
	if *stateDir != "" {
		sections := restart.Sections{restart.SectionPlanner: job.Planner()}
		if meter != nil {
			sections[restart.SectionMeter] = meter
		}
		if err := restart.SaveSections(*stateDir, sections); err != nil {
			fmt.Fprintln(os.Stderr, "varuna-morph:", err)
			os.Exit(1)
		}
		fmt.Printf("planner state saved to %s\n", *stateDir)
	}
}

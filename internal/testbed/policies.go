package testbed

import (
	"repro/internal/schedule"
	"repro/internal/sim"
)

// varunaPolicy is the default execution discipline of the testbed.
var varunaPolicy = schedule.Varuna

// MeasureWithPolicy executes one mini-batch under a comparison
// system's schedule (GPipe, Megatron-1F1B, DeepSpeed, PipeDream). GPipe
// runs memory-chunked: its all-forward phase stashes one input
// activation per in-flight micro-batch, so large Nm is split into
// chunks that fit the stash budget, draining the pipeline in between.
func (tb *Testbed) MeasureWithPolicy(cfg JobConfig, policy schedule.Policy) (Measurement, error) {
	switch policy.Name {
	case schedule.GPipeP.Name:
		return tb.measure(cfg, func(rc sim.Config) (sim.Result, error) {
			rc.Policy = policy
			chunk := tb.gpipeChunk(cfg)
			return sim.RunChunked(rc, chunk, schedule.GPipe)
		})
	case schedule.Varuna.Name:
		return tb.MeasureMiniBatch(cfg)
	case schedule.VarunaStrict.Name:
		// Freeze the rule-based order under mean timings, then replay
		// it without deviation — the opportunism ablation.
		return tb.measure(cfg, func(rc sim.Config) (sim.Result, error) {
			orders, err := sim.VarunaOrders(rc.Depth, rc.Micros, rc.Costs)
			if err != nil {
				return sim.Result{}, err
			}
			rc.Policy = schedule.Policy{Name: policy.Name}
			rc.Orders = orders.Orders
			return sim.Run(rc)
		})
	default:
		// 1F1B-family schedules (Megatron, DeepSpeed, PipeDream).
		return tb.measure(cfg, func(rc sim.Config) (sim.Result, error) {
			orders, err := schedule.OneFOneB(rc.Depth, rc.Micros)
			if err != nil {
				return sim.Result{}, err
			}
			rc.Policy = policy
			rc.Orders = orders.Orders
			return sim.Run(rc)
		})
	}
}

// gpipeChunk derives GPipe's memory-feasible chunk from the device
// memory left after model state.
func (tb *Testbed) gpipeChunk(cfg JobConfig) int {
	p := len(cfg.Stages)
	// Budget: device memory minus state of the largest stage, capped
	// to leave room for working activations.
	var maxState int64
	for _, st := range cfg.Stages {
		if s := st.Params * 16; s > maxState {
			maxState = s
		}
	}
	budget := tb.Cluster.VM.GPU.MemoryBytes - maxState - (2 << 30)
	if budget < 1<<30 {
		budget = 1 << 30
	}
	stashPer := cfg.Spec.BlockActivationBytes() * int64(cfg.M)
	return sim.GPipeChunk(budget, stashPer, p)
}

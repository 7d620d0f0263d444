package sim

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// RunChunked executes a mini-batch in memory-bounded chunks with a full
// pipeline drain between chunks. This is how GPipe-style schedules run
// large micro-batch counts in practice: all-forward-then-all-backward
// stashes one input activation per in-flight micro-batch, so the
// mini-batch is split into chunks that fit device memory and the
// pipeline flushes between them. Each flush re-pays the fill/drain
// bubble, and on slow networks the per-hop activation latency in the
// fill phase is fully exposed — the mechanism behind GPipe's growing
// gap to Varuna in Table 5.
//
// gen builds the schedule for one chunk (e.g. schedule.GPipe). The
// allreduce and optimizer step are paid once, after the last chunk.
func RunChunked(cfg Config, chunk int, gen func(depth, micros int) (*schedule.Schedule, error)) (Result, error) {
	if chunk < 1 {
		return Result{}, fmt.Errorf("sim: chunk %d < 1", chunk)
	}
	if cfg.Policy.Rule {
		return Result{}, fmt.Errorf("sim: chunked execution needs a strict policy")
	}
	total := Result{}
	remaining := cfg.Micros
	var offset simtime.Time
	var busy simtime.Duration
	for remaining > 0 {
		n := chunk
		if n > remaining {
			n = remaining
		}
		s, err := gen(cfg.Depth, n)
		if err != nil {
			return Result{}, err
		}
		sub := cfg
		sub.Micros = n
		sub.Orders = s.Orders
		res, err := Run(sub)
		if err != nil {
			return Result{}, err
		}
		busy += res.Busy
		for _, span := range res.Trace {
			span.Start = span.Start.Add(simtime.Duration(offset))
			span.End = span.End.Add(simtime.Duration(offset))
			total.Trace = append(total.Trace, span)
		}
		total.OpportunisticRuns += res.OpportunisticRuns
		total.StageEnds = make([]simtime.Time, len(res.StageEnds))
		for i, end := range res.StageEnds {
			total.StageEnds[i] = end.Add(simtime.Duration(offset))
		}
		offset = offset.Add(res.PipelineSpan)
		remaining -= n
	}
	total.PipelineSpan = simtime.Duration(offset)
	// Allreduce and optimizer once, after the final chunk: the slowest
	// stage bounds the tail.
	var tail simtime.Duration
	for s := 0; s < cfg.Depth; s++ {
		t := cfg.Costs[s].AllReduce + cfg.Costs[s].Optimizer
		if cfg.Policy.NoFlush {
			t = cfg.Costs[s].Optimizer
		}
		if t > tail {
			tail = t
		}
	}
	total.Makespan = total.PipelineSpan + tail
	total.Busy = busy
	if total.PipelineSpan > 0 {
		whole := total.PipelineSpan * simtime.Duration(cfg.Depth)
		total.BubbleFrac = 1 - float64(busy)/float64(whole)
	}
	return total, nil
}

// EstimateMakespan predicts the mini-batch time of cfg: the makespan
// of a no-trace Run, whatever the caller's CollectTrace says.
//
// Deterministic configurations — every configuration the
// auto-configuration sweep builds — are exact and cheap: the
// steady-state cycle detector (steadystate.go) makes a full-Nm run
// cost O(warm-up + drain) events regardless of Nm, so the estimate is
// the bit-exact makespan a brute-force simulation of all Nm
// micro-batches produces. This keeps Varuna's sweep at sub-second cost
// per configuration for any batch size, the §7.2 requirement that the
// simulator "react to change in spot VM availability" in hundreds of
// milliseconds. A jittered configuration runs event by event.
func EstimateMakespan(cfg Config) (simtime.Duration, error) {
	cfg.CollectTrace = false
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// GPipeChunk picks the memory-feasible chunk size for GPipe on a device
// with stashBudget bytes available for input-activation stash, given
// the per-micro-batch stash size. It never goes below the pipeline
// depth (GPipe needs at least P micro-batches in flight to fill the
// pipeline).
func GPipeChunk(stashBudget, stashPerMicro int64, depth int) int {
	if stashPerMicro <= 0 {
		return depth
	}
	c := int(stashBudget / stashPerMicro)
	if c < depth {
		c = depth
	}
	return c
}

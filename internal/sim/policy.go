package sim

import (
	"repro/internal/schedule"
	"repro/internal/simtime"
)

// tryRule implements Varuna's scheduling rules (§3.2) online:
//
//  1. Just-in-time recompute: R(m) at stage k starts so that it
//     completes as the gradient from stage k+1's B(m) arrives. The
//     arrival is announced the moment the upstream backward starts,
//     exactly as a real implementation can piggyback a
//     "backward started" notification on the pipeline channel.
//  2. After a recompute, the stage unconditionally waits for the
//     matching backward: running anything else would double activation
//     memory.
//  3. Backward is preferred whenever one is ready.
//
// Because decisions are made online against actual arrivals, the
// policy is intrinsically work-conserving under jitter — this is the
// "opportunistically schedules another ready task" behaviour of §3.2.
// The strict ablation instead freezes the order this policy produces
// under mean timings and replays it verbatim (see VarunaOrders).
func (e *executor) tryRule(st *stageState, now simtime.Time) {
	// Rule 2: committed to a backward after recompute.
	if st.locked >= 0 {
		if e.backwardReady(st, st.locked, now) {
			e.start(st, schedule.Task{Kind: schedule.Backward, Micro: st.locked}, now, e.syncExtra(st, schedule.Task{Kind: schedule.Backward}))
		}
		return
	}

	// Rule 3: prefer a ready backward (lowest micro first — gradients
	// arrive in order, and bwdLow tracks the lowest outstanding one).
	if m := st.bwdLow; m < e.cfg.Micros && e.backwardReady(st, m, now) {
		e.start(st, schedule.Task{Kind: schedule.Backward, Micro: m}, now, e.syncExtra(st, schedule.Task{Kind: schedule.Backward}))
		return
	}

	// Rule 1: just-in-time recompute for the next due backward. The
	// gradient's arrival is announced when the upstream backward
	// starts; from then on the recompute is "due" — it must finish by
	// the arrival (t − t′ > Tf is a lower bound on lead time), and an
	// idle stage runs it immediately rather than waiting for the last
	// possible slot.
	next := e.nextBackward(st)
	recMean := e.scaled(e.cfg.Costs[st.idx].Rec, st.idx)
	var recBy simtime.Time = never
	recDue := false
	if next >= 0 && st.fwdDone[next] && !st.recDone[next] && st.hot != next {
		if ann := st.gradAnnounce[next]; ann != never {
			recDue = true
			recBy = ann.Add(-recMean)
		}
	}

	// Forward, if one is ready and either it completes before the
	// recompute deadline (work conservation that never displaces rule
	// 1), or the downstream pipeline is at risk of starving: the
	// stage's forward lead over its backward frontier must cover the
	// stages below it, else the last stage runs dry and the whole
	// pipeline stalls to refill. A slightly late recompute costs one
	// bounded delay; a starved pipeline costs a full drain.
	if st.nextFwd < e.cfg.Micros && st.inFlight < e.cfg.MaxInFlight {
		m := st.nextFwd
		arrived := st.actArrival[m] <= now
		if e.cfg.Policy.SyncComm {
			arrived = st.fwdSenderEnd[m] <= now
		}
		if arrived {
			fwdMean := e.scaled(e.cfg.Costs[st.idx].Fwd, st.idx)
			fits := recBy == never || now.Add(fwdMean) <= recBy
			lead := st.nextFwd - next
			if next < 0 {
				lead = e.cfg.Micros
			}
			starving := lead < e.cfg.Depth-st.idx
			if fits || starving {
				if recBy == never && next >= 0 && st.fwdDone[next] {
					// A backward is pending but its gradient has not
					// even been announced: this forward is the §3.2
					// opportunistic deviation hiding upstream jitter.
					e.opport++
				}
				st.nextFwd++
				e.start(st, schedule.Task{Kind: schedule.Forward, Micro: m}, now, e.syncExtra(st, schedule.Task{Kind: schedule.Forward}))
				return
			}
		}
	}

	// No forward fits: if the recompute is due, run it now so the
	// backward can start the instant its gradient lands.
	if recDue {
		e.start(st, schedule.Task{Kind: schedule.Recompute, Micro: next}, now, 0)
	}
	// Otherwise nothing is runnable: the stage sleeps until its next
	// input arrives, and every arrival event retries it.
}

// scaled applies the per-stage straggler factor to a mean duration.
func (e *executor) scaled(d simtime.Duration, stage int) simtime.Duration {
	if e.cfg.SpeedFactor == nil {
		return d
	}
	return simtime.Duration(float64(d)*e.cfg.SpeedFactor[stage] + 0.5)
}

// nextBackward reports the lowest micro-batch still awaiting backward.
// The bwdLow cursor is maintained on every backward completion, so
// this is O(1) regardless of how many micro-batches are already done.
func (e *executor) nextBackward(st *stageState) int {
	if st.bwdLow < e.cfg.Micros {
		return st.bwdLow
	}
	return -1
}

// tryStrict follows a fixed per-stage order. Without Opportunistic the
// stage stalls whenever the next task's inputs are missing (GPipe,
// 1F1B, DeepSpeed, Varuna-strict ablation). With Opportunistic, a
// stalled stage pulls the next forward in the order whose input has
// arrived — the paper's deviation when "the gradients for m may not
// have arrived yet".
func (e *executor) tryStrict(st *stageState, now simtime.Time) {
	order := e.cfg.Orders[st.idx]
	for st.orderPos < len(order) && st.orderDone[st.orderPos] {
		st.orderPos++
	}
	if st.orderPos >= len(order) {
		return
	}
	pos := st.orderPos
	t := order[pos]
	if e.taskReady(st, t, now) {
		st.orderDone[pos] = true
		e.start(st, t, now, e.syncExtra(st, t))
		return
	}
	if t.Kind == schedule.Backward {
		// If the gradient is here but the activations were evicted by
		// an out-of-order task, recover with an extra recompute — the
		// price of deviation, charged honestly.
		m := t.Micro
		gradOK := st.gradArrival[m] <= now
		if e.cfg.Policy.SyncComm {
			gradOK = st.gradSenderEnd[m] <= now
		}
		if gradOK && st.fwdDone[m] && !st.recDone[m] && st.hot != m {
			e.start(st, schedule.Task{Kind: schedule.Recompute, Micro: m}, now, 0)
			return
		}
	}

	if !e.cfg.Policy.Opportunistic || st.locked >= 0 {
		return
	}
	// Deviation: pull the next un-run forward whose input has arrived —
	// unless running it would evict hot activations that a pending
	// backward still needs (that backward has no recompute scheduled).
	if st.hot >= 0 && !st.bwdDone[st.hot] && !st.hasRec[st.hot] {
		return
	}
	for i := pos + 1; i < len(order); i++ {
		if st.orderDone[i] || order[i].Kind != schedule.Forward {
			continue
		}
		if st.inFlight >= e.cfg.MaxInFlight {
			return
		}
		if e.taskReady(st, order[i], now) {
			st.orderDone[i] = true
			e.opport++
			e.start(st, order[i], now, e.syncExtra(st, order[i]))
		}
		return // only the first pending forward can be pulled
	}
}

// taskReady reports whether t's inputs are available on st at now.
func (e *executor) taskReady(st *stageState, t schedule.Task, now simtime.Time) bool {
	switch t.Kind {
	case schedule.Forward:
		if e.cfg.Policy.SyncComm {
			return st.fwdSenderEnd[t.Micro] <= now
		}
		return st.actArrival[t.Micro] <= now
	case schedule.Backward:
		return e.backwardReady(st, t.Micro, now)
	default: // Recompute uses only the local input stash
		return true
	}
}

// VarunaOrders derives Varuna's static schedule for the given costs by
// executing the rule-based policy with mean timings (no jitter) and
// recording the per-stage task order. This is the offline schedule a
// stage sticks to absent jitter (§3.2).
func VarunaOrders(depth, micros int, costs []StageCosts) (*schedule.Schedule, error) {
	res, err := Run(Config{
		Depth:        depth,
		Micros:       micros,
		Policy:       schedule.Varuna,
		Costs:        costs,
		CollectTrace: true,
	})
	if err != nil {
		return nil, err
	}
	s := &schedule.Schedule{Depth: depth, Micros: micros, Orders: make([]schedule.Order, depth)}
	for _, span := range res.Trace {
		s.Orders[span.Stage] = append(s.Orders[span.Stage], span.Task)
	}
	return s, nil
}

// UnitCosts builds the uniform-stage costs used for schedule-shape
// comparisons like Figure 4: forward and recompute take unit time,
// backward twice that, with negligible transfer time.
func UnitCosts(depth int, unit simtime.Duration) []StageCosts {
	costs := make([]StageCosts, depth)
	for i := range costs {
		costs[i] = StageCosts{Fwd: unit, Bwd: 2 * unit, Rec: unit, ActSend: unit / 100, GradSend: unit / 100}
	}
	return costs
}

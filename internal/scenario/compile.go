package scenario

import (
	"fmt"
	"sort"

	"repro/internal/autoconfig"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// Compiled is a scenario resolved into the exact inputs the manager
// consumes: a calibrated job, the testbed to measure on, the merged
// spot-event stream (market churn plus scripted/chaos preemptions),
// the manager's options and its Degrade/NetDegrade/ObjChange
// schedules. The job, testbed and options (Job, TB, Opts) come from the
// per-job compile step fleet tenants use too. Compilation is deterministic:
// the same scenario always compiles to the same inputs, so a replay of
// the compiled run is bit-identical.
type Compiled struct {
	compiled
	jobBuild
	Events   []spot.Event
	Degrade  []manager.Degradation
	NetSched []manager.NetDegradation
	ObjSched []manager.ObjectiveChange
	Outages  []manager.DomainOutage
	// Skipped counts scripted/chaos events dropped because no live VM
	// was available to victimize at their instant.
	Skipped int
}

// compiled is what single-job and fleet scenarios share once
// compiled: the scenario, its horizon, and the observation state a run
// wires into its managers.
type compiled struct {
	Scenario *Scenario
	Horizon  simtime.Duration
	// ScriptEvents counts the scripted+chaos events applied (after
	// chaos expansion, before victim resolution).
	ScriptEvents int

	// Series and Monitors are the continuous-telemetry state: created
	// at compile time when the scenario declares a telemetry or slos
	// block, or forced on by EnableTelemetry (the exporter commands).
	// Both nil — the zero-alloc disabled path, byte-identical output —
	// otherwise.
	Series   *obs.SeriesSet
	Monitors []*obs.Monitor

	// trace/met are the observability hooks Observe attaches; both nil
	// (fully disabled, bit-identical output) by default.
	trace *obs.Tracer
	met   *obs.Metrics
}

// EnableTelemetry creates the series set and attaches the scenario's
// SLO monitors. Compilation calls it when the scenario declares
// telemetry; the exporter commands call it to force sampling on
// scenarios that do not. Idempotent.
func (c *compiled) EnableTelemetry() {
	if c.Series != nil {
		return
	}
	c.Series = obs.NewSeriesSet(telemetryRing(c.Scenario))
	c.Monitors = buildMonitors(c.Scenario, c.Series)
}

// Observe attaches a tracer and/or metrics registry before Run: spans
// land on the tracer (one "job:<name>" track per job, after the market
// and arbiter control tracks in fleet mode), registry metrics
// (including the "wall."-prefixed self-profiling) on the registry, and
// the report gains the deterministic (SimOnly) snapshot. Either may be
// nil. With both nil the run is byte-identical to an unobserved one.
func (c *compiled) Observe(tr *obs.Tracer, m *obs.Metrics) {
	c.trace = tr
	c.met = m
}

// sample points a manager's options at the run's series set under
// prefix: none for a single job, "<job>/" in fleet mode. No-op without
// telemetry.
func (c *compiled) sample(o *manager.Options, prefix string) {
	if c.Series == nil {
		return
	}
	o.Series, o.SeriesPrefix, o.SampleEvery = c.Series, prefix, telemetrySampleEvery(c.Scenario)
}

// observed returns o with the run's trace and metrics sinks set, and
// arms the SLO monitors' breach hooks on them.
func (c *compiled) observed(o fleet.Options) fleet.Options {
	o.Trace, o.Metrics = c.trace, c.met
	if c.Series != nil {
		attachBreachHooks(c.Monitors, c.trace, c.met)
	}
	return o
}

// gauges publishes one job's planner hit rate and, when priced, its
// dollar split. label is "" for a single job and "<job>." in fleet
// mode.
func (c *compiled) gauges(label string, mg *manager.Manager, st manager.Stats) {
	if c.met == nil {
		return
	}
	c.met.Gauge("planner."+label+"cost_hit_rate", mg.Plan.Stats().HitRate())
	if mg.Opts.Prices != nil {
		c.met.Gauge("dollars."+label+"total", st.DollarsSpent)
		c.met.Gauge("dollars."+label+"compute", st.DollarsCompute)
		c.met.Gauge("dollars."+label+"reconfig", st.DollarsReconfig)
		c.met.Gauge("dollars."+label+"idle", st.DollarsIdle)
	}
}

// conclude collects the SLO outcomes (enforce-mode breaches join
// violations) and the SimOnly snapshot of an observed run: the tail
// every report shares.
func (c *compiled) conclude(violations []string) ([]obs.SLOResult, []string, *obs.Snap) {
	slos, violations := sloResults(c.Monitors, violations)
	if c.met == nil {
		return slos, violations, nil
	}
	snap := c.met.Snapshot(obs.SimOnly)
	return slos, violations, &snap
}

// jobBuild is one job compiled from its scenario fields: the
// calibrated job, the testbed it measures on and validated manager
// options.
type jobBuild struct {
	Job  *core.Job
	TB   *testbed.Testbed
	Opts manager.Options
	seed int64
}

// manager builds the job's manager over its job-lifetime planner:
// every manager a scenario runs comes from here.
func (b *jobBuild) manager(opts manager.Options) *manager.Manager {
	return manager.NewWithPlanner(b.Job.Inputs(), b.TB, b.Job.Planner(), opts, b.seed)
}

// buildJob is the per-job compile step behind both scenario shapes. A
// single-job scenario passes its job, run and checkpoint blocks; a
// fleet tenant passes FleetJobSpec.blocks. mk must be pristine: the
// market gap prior reads its analytic hazard before any trace advances
// it. A non-nil pool makes the job's meter a tee into that shared bill.
func buildJob(js JobSpec, rs RunSpec, ck CheckpointSpec, mk *spot.Market, curve *price.Curve, pool *price.Meter) (*jobBuild, error) {
	spec, ok := model.ByName(js.Model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", js.Model)
	}
	vm := hw.NC6v3
	if js.VMGPUs == 4 {
		vm = hw.NC24v3
	}
	cluster := hw.SpotCluster(vm, js.ClusterGPUs)
	cluster.Topo = js.Topology.topology()
	job, err := core.NewJob(spec, cluster, js.Batch, js.Seed)
	if err != nil {
		return nil, err
	}
	b := &jobBuild{Job: job, TB: job.Testbed(), seed: rs.ManagerSeed}
	if rs.Testbed == "fresh" {
		b.TB = testbed.New(cluster, rs.TestbedSeed)
	}

	opts := manager.DefaultOptions()
	switch rs.Policy {
	case "modeled":
		opts.Policy = manager.PolicyModeled
	case "constant":
		opts.Policy = manager.PolicyConstant
	}
	opts.Objective = objectiveFor(rs.Objective, rs.DeadlineAt, rs.TargetExamples, rs.Horizon)
	opts.MeasureStragglers = rs.MeasureStragglers
	if rs.HeartbeatEvery >= 0 {
		opts.HeartbeatEvery = rs.HeartbeatEvery
	}
	opts.Prices = curve
	if pool != nil {
		opts.Meter = price.NewTeeMeter(curve, pool)
	}
	if ck.Replicas > 1 {
		spread := hw.DomainZone
		switch ck.Spread {
		case "rack":
			spread = hw.DomainRack
		case "region":
			spread = hw.DomainRegion
		}
		opts.Replication = checkpoint.Policy{Replicas: ck.Replicas, Spread: spread}
	}
	if rs.GapPrior == "market" {
		vms := (rs.TargetGPUs + mk.GPUsPerVM - 1) / mk.GPUsPerVM
		opts.EventGapPrior = mk.ExpectedNextEvent(0, vms)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	b.Opts = opts
	return b, nil
}

func objectiveFor(name string, deadlineAt simtime.Duration, targetExamples float64, horizon simtime.Duration) autoconfig.Objective {
	switch name {
	case "min-dollar-per-example":
		return autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}
	case "deadline":
		dl := deadlineAt
		if dl <= 0 {
			dl = horizon
		}
		return autoconfig.Objective{
			Kind:           autoconfig.ObjDeadline,
			DeadlineAt:     simtime.Time(dl),
			TargetExamples: targetExamples,
		}
	default:
		return autoconfig.Objective{Kind: autoconfig.ObjMaxThroughput}
	}
}

// Compile resolves a scenario: calibrates the job, generates the
// market's base event trace, expands the chaos spec, resolves victims
// against the live fleet, and assembles manager options. The job
// calibration dominates the cost; everything else is cheap.
func Compile(sc *Scenario) (*Compiled, error) {
	curve, err := buildCurve(sc, sc.Run.Horizon)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	mk := sc.Market.market(sc.Job.VMGPUs)
	b, err := buildJob(sc.Job, sc.Run, sc.Checkpoint, mk, curve, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	c := &Compiled{compiled: compiled{Scenario: sc, Horizon: sc.Run.Horizon}, jobBuild: *b}
	base := spot.EventTrace(mk, sc.Run.TargetGPUs, sc.Run.Horizon, sc.Market.Probe)

	// Script: explicit events plus the expanded chaos spec, merged in
	// time order (scripted events win ties, in file order).
	script := append([]Event(nil), sc.Events...)
	if sc.Chaos != nil {
		script = append(script, sc.Chaos.Expand(sc.Run.Horizon)...)
	}
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	c.ScriptEvents = len(script)

	if err := c.merge(base, script, c.Opts.Prices); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if telemetryDeclared(sc) {
		c.EnableTelemetry()
	}
	return c, nil
}

// blocks restates a fleet tenant as the job and run blocks the per-job
// compile step reads. What a tenant cannot declare takes the fleet default:
// the shared VM size and horizon, a flat cluster, the job's own
// testbed, the default policy and heartbeat, and no straggler
// measurement.
func (js FleetJobSpec) blocks(f *FleetSpec) (JobSpec, RunSpec) {
	job := JobSpec{
		Model:       js.Model,
		VMGPUs:      f.VMGPUs,
		ClusterGPUs: js.ClusterGPUs,
		Batch:       js.Batch,
		Seed:        js.Seed,
	}
	run := RunSpec{
		TargetGPUs:     js.TargetGPUs,
		Horizon:        f.Horizon,
		ManagerSeed:    js.ManagerSeed,
		Testbed:        "job",
		GapPrior:       js.GapPrior,
		Objective:      js.Objective,
		DeadlineAt:     js.DeadlineAt,
		TargetExamples: js.TargetExamples,
		HeartbeatEvery: -1,
	}
	return job, run
}

// topology builds the failure-domain layout the spec names (the zero,
// flat topology when it names none).
func (t TopologySpec) topology() hw.Topology {
	if !t.Defined() {
		return hw.Topology{}
	}
	topo := hw.SpotTopology(t.Zones, t.RacksPerZone, t.NodesPerRack)
	topo.ZonesPerRegion = t.ZonesPerRegion
	return topo
}

// end is when a net-degrade or price-shock episode stops: after its
// duration, or at the horizon hz when it has none or outlasts it.
func (ev Event) end(hz simtime.Duration) simtime.Time {
	at := simtime.Time(ev.At)
	if ev.Duration > 0 && at.Add(ev.Duration) < simtime.Time(hz) {
		return at.Add(ev.Duration)
	}
	return simtime.Time(hz)
}

// market builds the scenario's spot market for vmGPUs-GPU VMs.
func (m MarketSpec) market(vmGPUs int) *spot.Market {
	mk := spot.NewMarket(vmGPUs, m.BaseCapacity, m.Seed)
	if m.MeanHold > 0 {
		mk.MeanHold = m.MeanHold
	}
	return mk
}

func buildCurve(sc *Scenario, runHorizon simtime.Duration) (*price.Curve, error) {
	var curve *price.Curve
	var err error
	switch sc.Prices.Kind {
	case "none":
		return nil, nil
	case "constant":
		curve = price.Constant(sc.Prices.PerGPUHour)
	case "mean-reverting":
		hz := sc.Prices.Horizon
		if hz <= 0 {
			hz = runHorizon
		}
		curve, err = price.MeanReverting(price.MROptions{
			Mean:      sc.Prices.Mean,
			Vol:       sc.Prices.Vol,
			Reversion: sc.Prices.Reversion,
			Floor:     sc.Prices.Floor,
			Step:      sc.Prices.Step,
			Horizon:   hz,
		}, sc.Prices.Seed)
		if err != nil {
			return nil, err
		}
	}
	return curve, nil
}

// merge interleaves the market's base trace with the scripted events,
// tracking the live fleet so victim picks land on VMs that actually
// exist at each instant, and drops market preemptions of VMs the
// script already killed. The market's precomputed trace does not
// re-grow to replace scripted kills — a scripted mass-preemption is
// capacity the provider reclaimed on top of its own churn.
func (c *Compiled) merge(base []spot.Event, script []Event, curve *price.Curve) error {
	sc := c.Scenario
	topo := sc.Job.Topology.topology()
	seed := sc.Run.VictimSeed
	if seed == 0 {
		if sc.Chaos != nil {
			seed = sc.Chaos.Seed + 104729
		} else {
			seed = sc.Market.Seed + 104729
		}
	}
	rng := simtime.NewRand(seed)

	live := map[int]int{} // vm id → gpus
	dead := map[int]bool{}
	liveIDs := func() []int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	// Network episodes become a max-of-active-factors step function so
	// overlapping episodes compose instead of the first restore
	// cancelling a still-running one.
	type netEp struct {
		at, end simtime.Time
		factor  float64
	}
	var netEps []netEp

	bi := 0
	apply := func(upTo simtime.Time) {
		for bi < len(base) && base[bi].At <= upTo {
			ev := base[bi]
			bi++
			switch ev.Kind {
			case spot.Alloc:
				live[ev.VM] = ev.GPUs
			case spot.Preempt:
				if dead[ev.VM] {
					continue // script killed it first; not a fleet event anymore
				}
				delete(live, ev.VM)
			}
			c.Events = append(c.Events, ev)
		}
	}
	for _, ev := range script {
		at := simtime.Time(ev.At)
		apply(at)
		switch ev.Kind {
		case "preempt":
			for k := 0; k < ev.Count; k++ {
				ids := liveIDs()
				if len(ids) == 0 {
					c.Skipped++
					break
				}
				vm := ev.VM
				if vm < 0 || live[vm] == 0 {
					vm = ids[rng.Intn(len(ids))]
				}
				c.Events = append(c.Events, spot.Event{At: at, Kind: spot.Preempt, VM: vm, GPUs: live[vm]})
				delete(live, vm)
				dead[vm] = true
			}
		case "zone-outage", "rack-outage", "region-outage":
			// A correlated mass preemption of one whole failure domain:
			// every live VM mapped there dies at the instant, and the
			// manager additionally settles checkpoint survivability via
			// the paired DomainOutage record.
			level := hw.DomainZone
			switch ev.Kind {
			case "rack-outage":
				level = hw.DomainRack
			case "region-outage":
				level = hw.DomainRegion
			}
			if !topo.Defined() {
				c.Skipped++
				continue
			}
			dom := ev.Domain
			if dom < 0 {
				domSet := map[int]bool{}
				for _, id := range liveIDs() {
					domSet[topo.DomainOfVM(id, level)] = true
				}
				if len(domSet) == 0 {
					c.Skipped++
					continue
				}
				doms := make([]int, 0, len(domSet))
				for d := range domSet {
					doms = append(doms, d)
				}
				sort.Ints(doms)
				dom = doms[rng.Intn(len(doms))]
			}
			killed := 0
			for _, id := range liveIDs() {
				if topo.DomainOfVM(id, level) != dom {
					continue
				}
				c.Events = append(c.Events, spot.Event{At: at, Kind: spot.Preempt, VM: id, GPUs: live[id]})
				delete(live, id)
				dead[id] = true
				killed++
			}
			if killed == 0 {
				c.Skipped++
			}
			c.Outages = append(c.Outages, manager.DomainOutage{At: at, Level: level, Domain: dom})
		case "straggler", "degrade":
			ids := liveIDs()
			if len(ids) == 0 {
				c.Skipped++
				continue
			}
			vm := ev.VM
			if vm < 0 || live[vm] == 0 {
				vm = ids[rng.Intn(len(ids))]
			}
			c.Degrade = append(c.Degrade, manager.Degradation{VM: vm, At: at, Factor: ev.Factor})
		case "net-degrade":
			netEps = append(netEps, netEp{at: at, end: ev.end(c.Horizon), factor: ev.Factor})
		case "price-shock":
			// Shock windows that overlap compound multiplicatively.
			shocked, err := curve.Scaled(at, ev.end(c.Horizon), ev.Factor)
			if err != nil {
				return err
			}
			curve, c.Opts.Prices = shocked, shocked
		case "objective":
			c.ObjSched = append(c.ObjSched, manager.ObjectiveChange{
				At:        at,
				Objective: objectiveFor(ev.Objective, ev.DeadlineAt, ev.TargetExamples, c.Horizon),
			})
		}
	}
	apply(simtime.Time(c.Horizon))

	// Flatten network episodes into factor-change entries.
	if len(netEps) > 0 {
		cuts := map[simtime.Time]bool{}
		for _, ep := range netEps {
			cuts[ep.at] = true
			cuts[ep.end] = true
		}
		times := make([]simtime.Time, 0, len(cuts))
		for t := range cuts {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		cur := 1.0
		for _, t := range times {
			f := 1.0
			for _, ep := range netEps {
				if ep.at <= t && t < ep.end && ep.factor > f {
					f = ep.factor
				}
			}
			if f != cur {
				c.NetSched = append(c.NetSched, manager.NetDegradation{At: t, Factor: f})
				cur = f
			}
		}
	}
	return nil
}

package testbed

import (
	"math"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func jobFor(t *testing.T, spec *model.Spec, p, m, nm, d int) JobConfig {
	t.Helper()
	k := spec.NumLayers - 1
	if k < p-1 {
		k = p - 1
	}
	cuts, err := model.FindCutPoints(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := model.Partition(spec, cuts, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return JobConfig{Spec: spec, Stages: stages, M: m, Nm: nm, D: d}
}

func TestMeasureMiniBatchBasics(t *testing.T) {
	tb := New(hw.SpotCluster(hw.NC6v3, 63), 1)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 16, 7)
	ms, err := tb.MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Examples != 4*16*7 {
		t.Fatalf("examples = %d, want %d", ms.Examples, 4*16*7)
	}
	if ms.MiniBatchTime <= 0 || ms.ExPerSec() <= 0 {
		t.Fatal("measurement must be positive")
	}
	if len(ms.Trace) == 0 {
		t.Fatal("replica-0 trace missing")
	}
	// Plausibility: 2.5B on 63 spot GPUs lands in the 0.5–5 ex/s/GPU
	// band the paper reports (~1.5-1.85).
	perGPU := ms.ExPerSec() / 63
	if perGPU < 0.3 || perGPU > 6 {
		t.Fatalf("per-GPU throughput %.2f ex/s implausible", perGPU)
	}
}

func TestMeasureRejectsBadConfig(t *testing.T) {
	tb := New(hw.SpotCluster(hw.NC6v3, 8), 1)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 8, 1)
	cfg.D = 0
	if _, err := tb.MeasureMiniBatch(cfg); err == nil {
		t.Fatal("D=0 must fail")
	}
}

func TestStragglerSlowsJob(t *testing.T) {
	base := New(hw.SpotCluster(hw.NC6v3, 36), 7)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 12, 4)
	clean, err := base.MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowTB := New(hw.SpotCluster(hw.NC6v3, 36), 7)
	cfg.ExtraSlow = map[int]float64{2: 1.4}
	slow, err := slowTB.MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §4.6: "even a single slow GPU would slow down the entire job".
	if float64(slow.MiniBatchTime) < 1.15*float64(clean.MiniBatchTime) {
		t.Fatalf("40%% straggler barely moved mini-batch: %v vs %v", slow.MiniBatchTime, clean.MiniBatchTime)
	}
}

func TestInterBoundaryFlags(t *testing.T) {
	one := New(hw.SpotCluster(hw.NC6v3, 8), 1)
	for i, f := range one.InterBoundaryFlags(6)[:5] {
		if !f {
			t.Fatalf("1-GPU VMs: boundary %d must be inter-node", i)
		}
	}
	four := New(hw.SpotCluster(hw.NC24v3, 8), 1)
	flags := four.InterBoundaryFlags(8)
	for i := 0; i < 7; i++ {
		want := (i+1)%4 == 0
		if flags[i] != want {
			t.Fatalf("4-GPU VMs: boundary %d inter=%v, want %v", i, flags[i], want)
		}
	}
	if flags[7] {
		t.Fatal("last stage has no boundary")
	}
}

func TestHyperclusterFasterThanSpot(t *testing.T) {
	spot := New(hw.SpotCluster(hw.NC6v3, 54), 3)
	hc := New(hw.Hypercluster(4), 3)
	cfg := jobFor(t, model.GPT2Megatron8B(), 18, 4, 16, 3)
	s, err := spot.MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hc.MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.MiniBatchTime >= s.MiniBatchTime {
		t.Fatalf("hypercluster %v must beat spot %v", h.MiniBatchTime, s.MiniBatchTime)
	}
	// But not catastrophically: Varuna's design keeps spot within ~2x
	// of hypercluster (Fig 5: 0.56 vs 0.83 ex/s/GPU ≈ 1.5x).
	ratio := float64(s.MiniBatchTime) / float64(h.MiniBatchTime)
	if ratio > 2.5 {
		t.Fatalf("spot/hypercluster ratio %.2f too large; pipeline comm not overlapped?", ratio)
	}
}

func TestCalibratedSimMatchesTestbed(t *testing.T) {
	// The heart of Table 7: calibrate on the testbed, predict with the
	// parametric simulator, compare against a measured run. The paper
	// reports <5% error; we allow 10% to absorb measurement noise.
	cluster := hw.SpotCluster(hw.NC6v3, 126)
	tb := New(cluster, 11)
	spec := model.GPT2XL2B()
	params, err := calibrate.Run(spec, tb, calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 53)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ p, d int }{{9, 7}, {18, 3}, {6, 10}} {
		stages, err := model.Partition(spec, cuts, c.p, true)
		if err != nil {
			t.Fatal(err)
		}
		// Realistic micro-batch counts for a batch of 8192.
		m := 4
		nm := (8192 + m*c.d - 1) / (m * c.d)
		costs, err := params.StageCosts(spec, stages, m, c.d, tb.InterBoundaryFlags(c.p))
		if err != nil {
			t.Fatal(err)
		}
		est, err := sim.EstimateMakespan(sim.Config{Depth: c.p, Micros: nm, Policy: schedule.Varuna, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		// Average several measured mini-batches.
		var sum float64
		const reps = 5
		for r := 0; r < reps; r++ {
			ms, err := tb.MeasureMiniBatch(JobConfig{Spec: spec, Stages: stages, M: m, Nm: nm, D: c.d})
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(ms.MiniBatchTime)
		}
		actual := sum / reps
		errFrac := math.Abs(float64(est)-actual) / actual
		if errFrac > 0.10 {
			t.Errorf("P=%d D=%d: estimate %v vs actual %.0f — error %.1f%% exceeds 10%%",
				c.p, c.d, est, actual, errFrac*100)
		}
	}
}

func TestMeasureWithPolicyOrdering(t *testing.T) {
	// Table 6's qualitative ordering on commodity 1-GPU VMs:
	// Varuna ≥ Megatron-1F1B ≥ DeepSpeed, and GPipe behind Varuna.
	tb := New(hw.SpotCluster(hw.NC6v3, 72), 5)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 32, 8)
	run := func(p schedule.Policy) float64 {
		var sum float64
		const reps = 3
		for r := 0; r < reps; r++ {
			ms, err := tb.MeasureWithPolicy(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sum += ms.ExPerSec()
		}
		return sum / reps
	}
	varuna := run(schedule.Varuna)
	megatron := run(schedule.Megatron1F1B)
	deepspeed := run(schedule.DeepSpeedP)
	gpipe := run(schedule.GPipeP)
	if varuna < megatron {
		t.Errorf("Varuna %.2f must be at least Megatron-1F1B %.2f", varuna, megatron)
	}
	if megatron < deepspeed {
		t.Errorf("Megatron-1F1B %.2f must beat DeepSpeed %.2f (comm overlap)", megatron, deepspeed)
	}
	if varuna <= gpipe {
		t.Errorf("Varuna %.2f must beat GPipe %.2f", varuna, gpipe)
	}
}

func TestVarunaStrictAblation(t *testing.T) {
	tb := New(hw.SpotCluster(hw.NC6v3, 36), 9)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 24, 4)
	ms, err := tb.MeasureWithPolicy(cfg, schedule.VarunaStrict)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MiniBatchTime <= 0 {
		t.Fatal("strict ablation must produce a measurement")
	}
}

func TestTrueStageCostsShape(t *testing.T) {
	tb := New(hw.SpotCluster(hw.NC6v3, 36), 1)
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 12, 4)
	costs := tb.TrueStageCosts(cfg)
	if len(costs) != 9 {
		t.Fatalf("%d costs", len(costs))
	}
	if costs[8].ActSend != 0 {
		t.Fatal("last stage sends nothing")
	}
	for i := 0; i < 8; i++ {
		if costs[i].ActSend <= 0 {
			t.Fatalf("stage %d missing transfer", i)
		}
	}
	var _ []sim.StageCosts = costs
	// D=1: no allreduce.
	cfg.D = 1
	for i, c := range tb.TrueStageCosts(cfg) {
		if c.AllReduce != 0 {
			t.Fatalf("stage %d has allreduce at D=1", i)
		}
	}
}

func TestMeasureNoTraceGolden(t *testing.T) {
	// The NoTrace knob must change nothing but the trace itself: two
	// identically-seeded testbeds measuring the same config report
	// bit-identical summary metrics, with and without the trace.
	cfg := jobFor(t, model.GPT2XL2B(), 9, 4, 16, 7)
	traced, err := New(hw.SpotCluster(hw.NC6v3, 63), 7).MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoTrace = true
	fast, err := New(hw.SpotCluster(hw.NC6v3, 63), 7).MeasureMiniBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MiniBatchTime != traced.MiniBatchTime || fast.Bubble != traced.Bubble || fast.Examples != traced.Examples {
		t.Fatalf("NoTrace drifted: %+v vs %+v", fast, traced)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("default measurement must keep the trace")
	}
	if len(fast.Trace) != 0 {
		t.Fatalf("NoTrace measurement recorded %d spans", len(fast.Trace))
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/scenarios"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func smallRun(t *testing.T, workload string, trace bool, fault string) *Result {
	t.Helper()
	var out bytes.Buffer
	res, err := Run(Options{Workload: workload, Seed: 1, Seconds: 0.01, Trace: trace,
		OutDir: t.TempDir(), Small: true, Fault: fault}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res
}

// TestEveryMetricEmitted runs a reduced-size pass of every workload,
// untraced and traced, and checks the result carries exactly the
// metrics BENCHMARK.json declares, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smallRun(t, w.name, trace, "")
			want := e2e
			if trace {
				want = layers
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
		}
	}
}

// TestPlantedFaultsCaught shows the correctness checks fail a run whose
// outputs are wrong.
func TestPlantedFaultsCaught(t *testing.T) {
	for _, c := range []struct{ workload, fault string }{
		{"chaos-cold", "stats"},
		{"chaos-warm", "stats"},
		{"multi-job", "stats"},
		{"train-morph", "loss"},
	} {
		res := smallRun(t, c.workload, false, c.fault)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with planted %s fault: correct=%v failed=%d", c.workload, c.fault, res.Correct, res.Failed)
		}
	}
}

// TestWarmReproducesCold checks, at seed 0 on the shortened horizon,
// that the cold run sweeps and the resumed run does not; the resumed
// run's own check holds it to the cold run's decisions.
func TestWarmReproducesCold(t *testing.T) {
	for _, w := range []string{"chaos-cold", "chaos-warm"} {
		var out bytes.Buffer
		res, err := Run(Options{Workload: w, Seconds: 0.01, Trace: true, OutDir: t.TempDir(), Small: true}, &out)
		if err != nil || !res.Correct {
			t.Fatalf("%s: %v\n%s", w, err, out.String())
		}
		sweeps := res.Metrics["autoconfig.sweeps"].Value
		if (w == "chaos-cold") != (sweeps > 0) {
			t.Errorf("%s: %v sweeps", w, sweeps)
		}
	}
}

func TestReseed(t *testing.T) {
	data, err := scenarios.FS.ReadFile(chaosFile)
	if err != nil {
		t.Fatal(err)
	}
	parse := func() *scenario.Scenario {
		sc, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	committed, same, other := parse(), parse(), parse()
	reseed(same, 0)
	if !reflect.DeepEqual(committed, same) {
		t.Error("seed 0 changed the committed scenario")
	}
	reseed(other, 3)
	if other.Prices.Seed == committed.Prices.Seed || other.Run.VictimSeed == committed.Run.VictimSeed {
		t.Errorf("seed 3 left the price or victim stream unseeded: %+v", other)
	}
	// The streams that move the planner's work stay as committed.
	other.Prices.Seed, other.Run.VictimSeed = committed.Prices.Seed, committed.Run.VictimSeed
	if !reflect.DeepEqual(committed, other) {
		t.Errorf("seed 3 changed more than the price and victim streams: %+v", other)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		want      float64
		ok        bool
	}{{10, 0, 0, false}, {20, 10, 50, true}, {100, 10, 90, true}, {1000, 10, 99, true}, {10000, 10, 99.9, true}, {600, 30, 95, true}} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "run", StartNs: 0, EndNs: 10 * ms},
		{ID: 2, Parent: 1, Name: "sweep", StartNs: 1 * ms, EndNs: 4 * ms},
		{ID: 3, Parent: 1, Name: "sweep", StartNs: 5 * ms, EndNs: 7 * ms},
		{ID: 4, Parent: 3, Name: "sim", StartNs: 5 * ms, EndNs: 6 * ms},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"run": 5 * time.Millisecond, "sweep": 4 * time.Millisecond, "sim": time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

// TestLoopUntilStaysInBudget checks the loop starts another iteration
// only when one as long as the last still fits the budget, and always
// runs one.
func TestLoopUntilStaysInBudget(t *testing.T) {
	b := &Bench{}
	for _, c := range []struct {
		budget, iter time.Duration
		want         int
	}{{time.Second, 400 * time.Millisecond, 2}, {100 * time.Millisecond, 300 * time.Millisecond, 1}} {
		n := 0
		err := b.loopUntil(c.budget, func(int) error { n++; time.Sleep(c.iter); return nil })
		if err != nil || n != c.want {
			t.Errorf("budget %v, iterations of %v: %d iterations (err %v), want %d", c.budget, c.iter, n, err, c.want)
		}
	}
}

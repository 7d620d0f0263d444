package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// The executor's observable output is pinned by digest: every field of
// every Result, the task trace included, across the policies the
// evaluation compares, with and without jitter, stragglers and a tight
// activation-stash cap, on a grid of depths and micro-batch counts
// that covers single-micro, fill-only and steady-state runs. An
// event-queue or scheduling change that reorders one task, moves one
// instant or shifts one jitter draw changes a digest.

// pinnedShapes is the P × Nm grid: Nm ∈ {1, P, 4P+3}.
func pinnedShapes() [][2]int {
	var out [][2]int
	for _, p := range []int{1, 2, 7, 24, 64} {
		for _, nm := range []int{1, p, 4*p + 3} {
			out = append(out, [2]int{p, nm})
		}
	}
	return out
}

// pinnedCosts is a heterogeneous stage profile: uneven kernels and a
// slow network hop every fourth boundary, so stages wait on arrivals,
// recompute just in time and deviate opportunistically.
func pinnedCosts(p int) []StageCosts {
	ms := simtime.Millisecond
	costs := make([]StageCosts, p)
	for i := range costs {
		f := simtime.Duration(30+7*(i%5)) * ms
		costs[i] = StageCosts{
			Fwd: f, Bwd: 2*f + simtime.Duration(i%3)*ms, Rec: f,
			ActSend:   simtime.Duration(2+9*(i%4)) * ms,
			GradSend:  simtime.Duration(3+7*(i%4)) * ms,
			AllReduce: simtime.Duration(150+10*i) * ms,
			Optimizer: 10 * ms,
		}
	}
	return costs
}

// pinnedPolicy configures one policy for a shape: the rule policies
// need no orders; strict ones replay their static order.
type pinnedPolicy struct {
	name   string
	policy schedule.Policy
	orders func(t *testing.T, p, nm int, costs []StageCosts) []schedule.Order
}

func pinnedPolicies() []pinnedPolicy {
	ofob := func(t *testing.T, p, nm int, _ []StageCosts) []schedule.Order {
		s, err := schedule.OneFOneB(p, nm)
		if err != nil {
			t.Fatal(err)
		}
		return s.Orders
	}
	gpipe := func(t *testing.T, p, nm int, _ []StageCosts) []schedule.Order {
		s, err := schedule.GPipe(p, nm)
		if err != nil {
			t.Fatal(err)
		}
		return s.Orders
	}
	// The strict ablation freezes the order the rule policy takes on
	// a compute-only profile, so replaying it over the slow hops makes
	// stages stall on late inputs — where deviation pulls forwards.
	frozen := func(t *testing.T, p, nm int, _ []StageCosts) []schedule.Order {
		s, err := VarunaOrders(p, nm, UnitCosts(p, 40*simtime.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return s.Orders
	}
	return []pinnedPolicy{
		{"rule", schedule.Varuna, nil},
		{"gpipe", schedule.GPipeP, gpipe},
		{"1f1b", schedule.Policy{Name: "1F1B"}, ofob},
		{"megatron", schedule.Megatron1F1B, ofob},
		{"deepspeed", schedule.DeepSpeedP, ofob},
		{"varuna-strict", schedule.Policy{Name: "Varuna-strict"}, frozen},
		{"varuna-strict-opp", schedule.Policy{Name: "Varuna-strict", Opportunistic: true}, frozen},
	}
}

// pinnedVariants perturbs a base config: plain means, seeded jitter, a
// straggling middle stage and a two-deep activation stash.
var pinnedVariants = []struct {
	name  string
	apply func(cfg *Config, seed int64)
}{
	{"plain", func(*Config, int64) {}},
	{"jitter", func(cfg *Config, seed int64) {
		cfg.JitterCV, cfg.ComputeJitterCV, cfg.Rand = 0.5, 0.02, simtime.NewRand(seed)
	}},
	{"speed", func(cfg *Config, _ int64) {
		cfg.SpeedFactor = make([]float64, cfg.Depth)
		for i := range cfg.SpeedFactor {
			cfg.SpeedFactor[i] = 1
		}
		cfg.SpeedFactor[cfg.Depth/2] = 1.3
	}},
	{"maxinflight", func(cfg *Config, _ int64) { cfg.MaxInFlight = 2 }},
}

// pinnedDigests are the SHA-256 digests of the traced and untraced
// Results of every shape, per policy/variant.
var pinnedDigests = map[string]string{
	"rule/plain":                    "68fc5cf21bc42c719b0c6ae9f7317d9feab06191920bc158bf830c012da1d736",
	"rule/jitter":                   "f3fd9d136cc850f7109abb159a83c552f5a8470d0f112e77331c352615dc18b9",
	"rule/speed":                    "5944b1460c4b98d4e2e238e2917b26cda35ae9ebaa2c9bbf6cd1d57c0993c800",
	"rule/maxinflight":              "fdc496c507f62204e711e2a922be708ab2e0078c33e808818ebd0849c3fb45f5",
	"gpipe/plain":                   "16d6993ac58a42a8e97f4b1ceaac7bb27548f17af6d84f97857fdd590dcc0010",
	"gpipe/jitter":                  "94cf8cb487b8f67b7a51fd5cc520642f9b290b91fd45a2ec289c6e9f65d64b36",
	"gpipe/speed":                   "c89861b765301a6e5bb1b7742f39443cd7fd9f9c792bb851d59a29fce96e0544",
	"gpipe/maxinflight":             "16d6993ac58a42a8e97f4b1ceaac7bb27548f17af6d84f97857fdd590dcc0010",
	"1f1b/plain":                    "be857a21eb437dcd29aeccabac475b3c81c73bddf034a24df4505bb1679c75da",
	"1f1b/jitter":                   "45e07ca300f00450d4abc561f48af3bbaef8e5225ec4c80b308775e5c2a12806",
	"1f1b/speed":                    "f890d546bb3d10aabcd81ca4511a45b5abbf66c3e1db5a13181546c427068995",
	"1f1b/maxinflight":              "be857a21eb437dcd29aeccabac475b3c81c73bddf034a24df4505bb1679c75da",
	"megatron/plain":                "b8aa9b18781939a473e24af007a72d04d71c02fa7ddd0b2a7176ab28c4aefedc",
	"megatron/jitter":               "bef6587e3205334f60ad42df5c275203a0a423ed8640cfef00ee27c05fabb765",
	"megatron/speed":                "94d1bc0e1ee45f3429356b3af915a801a09a99d5c00cc4c7b54555f24f451051",
	"megatron/maxinflight":          "b8aa9b18781939a473e24af007a72d04d71c02fa7ddd0b2a7176ab28c4aefedc",
	"deepspeed/plain":               "c6a52314041e01a972ddf0c9fd349c6db38c157977da9d01f8a43732d71f12d9",
	"deepspeed/jitter":              "0e4f36f119388ebfcbbaa48e858509c658d3c70b10815067dcd51d6dc3b0703b",
	"deepspeed/speed":               "86d73a4bc8b37f4ee1a9fb42a2993ab229d3faa08e63b2142b86886ef65ea82a",
	"deepspeed/maxinflight":         "c6a52314041e01a972ddf0c9fd349c6db38c157977da9d01f8a43732d71f12d9",
	"varuna-strict/plain":           "4954a936ab37a5a202461d14f651e3158e0b52618ba0a0fba210958df8cdb4dc",
	"varuna-strict/jitter":          "0017d5014f5a84bead3bb368bf6ab547b0946cacc81fb0cdb1932cf80ca05dfa",
	"varuna-strict/speed":           "3998c650f4692e36ff62fa56e8a5ed7a1741fcf7605b738c5bf3c63d61eecbbb",
	"varuna-strict/maxinflight":     "4954a936ab37a5a202461d14f651e3158e0b52618ba0a0fba210958df8cdb4dc",
	"varuna-strict-opp/plain":       "4954a936ab37a5a202461d14f651e3158e0b52618ba0a0fba210958df8cdb4dc",
	"varuna-strict-opp/jitter":      "86969c47b7177d95577e1b6dcf6cb54593311b122d16ba80953a2d6abf020fb8",
	"varuna-strict-opp/speed":       "3998c650f4692e36ff62fa56e8a5ed7a1741fcf7605b738c5bf3c63d61eecbbb",
	"varuna-strict-opp/maxinflight": "4954a936ab37a5a202461d14f651e3158e0b52618ba0a0fba210958df8cdb4dc",
}

// appendResult serializes every field of a run's outcome.
func appendResult(b []byte, res Result, err error) []byte {
	if err != nil {
		return append(b, err.Error()...)
	}
	u := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	u(int64(res.Makespan))
	u(int64(res.PipelineSpan))
	u(int64(res.Busy))
	u(int64(math.Float64bits(res.BubbleFrac)))
	u(int64(res.OpportunisticRuns))
	u(int64(len(res.StageEnds)))
	for _, e := range res.StageEnds {
		u(int64(e))
	}
	u(int64(len(res.Trace)))
	for _, s := range res.Trace {
		u(int64(s.Stage))
		u(int64(s.Task.Kind))
		u(int64(s.Task.Micro))
		u(int64(s.Start))
		u(int64(s.End))
	}
	return b
}

// TestPinnedResults recomputes every digest and compares it with the
// committed one.
func TestPinnedResults(t *testing.T) {
	for _, pol := range pinnedPolicies() {
		for _, v := range pinnedVariants {
			name := pol.name + "/" + v.name
			h := sha256.New()
			var buf []byte
			for i, sh := range pinnedShapes() {
				p, nm := sh[0], sh[1]
				costs := pinnedCosts(p)
				base := Config{Depth: p, Micros: nm, Policy: pol.policy, Costs: costs}
				if pol.orders != nil {
					base.Orders = pol.orders(t, p, nm, costs)
				}
				for _, traced := range []bool{true, false} {
					cfg := base
					v.apply(&cfg, int64(i))
					cfg.CollectTrace = traced
					res, err := Run(cfg)
					buf = appendResult(buf[:0], res, err)
					h.Write(buf)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want, ok := pinnedDigests[name]; !ok || got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}

// TestPinnedResultsCoverage keeps the pin meaningful: the plain grid
// must include runs that took the steady-state jump, and the jittered
// grid strict runs that deviated from their order.
func TestPinnedResultsCoverage(t *testing.T) {
	fired, pulls := 0, 0
	for _, pol := range pinnedPolicies() {
		for i, sh := range pinnedShapes() {
			p, nm := sh[0], sh[1]
			cfg := Config{Depth: p, Micros: nm, Policy: pol.policy, Costs: pinnedCosts(p)}
			if pol.orders != nil {
				cfg.Orders = pol.orders(t, p, nm, cfg.Costs)
			}
			if e, _ := runDirect(t, cfg); e.ss.fired {
				fired++
			}
			if !pol.policy.Rule {
				pinnedVariants[1].apply(&cfg, int64(i)) // seeded jitter
				pulls += mustRun(t, cfg).OpportunisticRuns
			}
		}
	}
	if fired == 0 || pulls == 0 {
		t.Fatalf("grid exercises %d fast-forwards and %d strict deviations; want both > 0", fired, pulls)
	}
}

package sim

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// TestMakespanLowerBoundFuzz certifies MakespanLowerBound on seeded
// random stage costs (zero-cost kernels and transfers included) against
// brute-force runs of every flushing policy whose tasks wait for their
// inputs to land — Megatron's half-overlapped receives start a task
// before its input arrives, so the bound does not cover them.
func TestMakespanLowerBoundFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2111))
	us := func(n int) simtime.Duration { return simtime.Duration(rng.Intn(n)) * simtime.Microsecond }
	checked := 0
	for i := 0; i < 300; i++ {
		p := 1 + rng.Intn(24)
		nm := 1 + rng.Intn(4*p+8)
		costs := make([]StageCosts, p)
		for s := range costs {
			costs[s] = StageCosts{
				Fwd: us(5000), Bwd: us(10000), Rec: us(5000),
				ActSend: us(4000), GradSend: us(4000),
				AllReduce: us(30000), Optimizer: us(2000),
			}
		}
		lb := MakespanLowerBound(costs, nm)
		for _, pol := range pinnedPolicies() {
			if pol.policy.SyncComm && pol.policy.OverlapFrac > 0 {
				continue
			}
			cfg := Config{Depth: p, Micros: nm, Policy: pol.policy, Costs: costs, DisableSteadyState: true}
			if pol.orders != nil {
				cfg.Orders = pol.orders(t, p, nm, costs)
			}
			if i%3 == 0 {
				cfg.MaxInFlight = 1 + rng.Intn(2*p)
			}
			if res := mustRun(t, cfg); lb > res.Makespan {
				t.Fatalf("case %d %s P=%d Nm=%d: bound %v exceeds makespan %v", i, pol.name, p, nm, lb, res.Makespan)
			}
			checked++
		}
	}
	t.Logf("%d runs checked", checked)
}

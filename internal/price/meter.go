package price

import (
	"encoding/json"
	"fmt"

	"repro/internal/simtime"
)

// Bucket labels what a span of paid GPU-time bought.
type Bucket int

const (
	// Compute is GPU-time spent training (GPUs the running
	// configuration actually uses).
	Compute Bucket = iota
	// Reconfig is GPU-time paid while the job was stopped for a
	// reconfiguration or a checkpoint stall — the downtime the
	// morph-or-hold decision prices.
	Reconfig
	// Idle is GPU-time paid for capacity the running configuration
	// could not use: the fleet remainder a P×D shape strands, flagged
	// stragglers still held, and whole-fleet gaps with nothing
	// running.
	Idle
	// NumBuckets bounds the bucket enum.
	NumBuckets
)

// String names the bucket.
func (b Bucket) String() string {
	switch b {
	case Compute:
		return "compute"
	case Reconfig:
		return "reconfig"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
}

// Meter integrates fleet-size × price into dollars over a manager
// timeline. Each Charge call prices one span of held GPUs against the
// curve and attributes the spend to a bucket; the running totals are
// a deterministic function of the charge sequence, so identically
// replayed timelines meter identically (bit-for-bit — the property
// the warm-resume state round-trip relies on).
type Meter struct {
	curve   *Curve
	dollars [NumBuckets]float64
	tee     *Meter
}

// NewMeter builds a meter over the given price curve.
func NewMeter(c *Curve) *Meter { return &Meter{curve: c} }

// NewTeeMeter builds a meter that mirrors every charge into pool, and
// on through pool's own tee chain: each job reads its own bill off its
// meter while the pool meter accumulates the fleet-wide bill, and a
// run-local meter teed into a restored one keeps the cumulative bill
// without the run's own figures ever carrying the restored base. The
// mirrored amount is the exact float computed for the first meter, so
// every meter in the chain sums the same charges (in chronological
// order). Export/Import snapshot only the meter's own accumulators.
func NewTeeMeter(c *Curve, pool *Meter) *Meter { return &Meter{curve: c, tee: pool} }

// Curve reports the curve the meter prices against.
func (m *Meter) Curve() *Curve { return m.curve }

// Charge accrues gpus GPUs held over [from, to] into bucket.
func (m *Meter) Charge(bucket Bucket, from, to simtime.Time, gpus int) {
	if m == nil || gpus <= 0 || to <= from {
		return
	}
	amt := float64(gpus) * m.curve.Integrate(from, to)
	for t := m; t != nil; t = t.tee {
		t.dollars[bucket] += amt
	}
}

// Total reports the dollars accrued across all buckets.
func (m *Meter) Total() float64 {
	if m == nil {
		return 0
	}
	var t float64
	for _, d := range m.dollars {
		t += d
	}
	return t
}

// InBucket reports the dollars accrued to one bucket.
func (m *Meter) InBucket(b Bucket) float64 {
	if m == nil {
		return 0
	}
	return m.dollars[b]
}

// MeterState is the serializable snapshot of a meter's accumulators —
// what restart persists alongside the planner state so a
// killed-and-restarted manager resumes its cost accounting instead of
// restarting the bill from zero.
type MeterState struct {
	Version  int     `json:"version"`
	Compute  float64 `json:"compute_dollars"`
	Reconfig float64 `json:"reconfig_dollars"`
	Idle     float64 `json:"idle_dollars"`
}

// meterStateVersion guards the on-disk format.
const meterStateVersion = 1

// ExportState snapshots the accumulated dollars as JSON. Go's float64
// JSON encoding is shortest-round-trip, so an export/import cycle
// reproduces every accumulator bit-identically. It implements
// restart.StateCarrier.
func (m *Meter) ExportState() ([]byte, error) {
	return json.MarshalIndent(MeterState{
		Version:  meterStateVersion,
		Compute:  m.dollars[Compute],
		Reconfig: m.dollars[Reconfig],
		Idle:     m.dollars[Idle],
	}, "", "  ")
}

// ImportState restores accumulators snapshotted by ExportState.
func (m *Meter) ImportState(data []byte) error {
	var st MeterState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("price: meter state: %w", err)
	}
	if st.Version != meterStateVersion {
		return fmt.Errorf("price: meter state version %d, want %d", st.Version, meterStateVersion)
	}
	m.dollars[Compute] = st.Compute
	m.dollars[Reconfig] = st.Reconfig
	m.dollars[Idle] = st.Idle
	return nil
}

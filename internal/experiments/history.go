package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// HistoryEntry is one green-run summary line in bench/history.jsonl:
// the per-experiment wall_ms of the run plus its distribution summary.
// The file is append-only JSONL — one line per CI-green run — and is
// the cross-run regression record varuna-benchdiff -history maintains.
type HistoryEntry struct {
	// Runs maps experiment id → wall_ms for that run.
	Runs map[string]float64 `json:"wall_ms"`
	// P50/P99/Max summarize the run's wall_ms distribution across
	// experiments (nearest-rank quantiles).
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// NewHistoryEntry summarizes a green run's reports. Failed reports are
// excluded (the gate already rejected the run if any failed).
func NewHistoryEntry(reports []Report) HistoryEntry {
	e := HistoryEntry{Runs: map[string]float64{}}
	var vals []float64
	for _, r := range reports {
		if !r.OK {
			continue
		}
		e.Runs[r.ID] = r.WallMS
		vals = append(vals, r.WallMS)
	}
	if len(vals) == 0 {
		return e
	}
	sort.Float64s(vals)
	e.P50 = obs.Quantile(vals, 0.50)
	e.P99 = obs.Quantile(vals, 0.99)
	e.Max = vals[len(vals)-1]
	return e
}

// LoadHistory reads a history.jsonl file. A missing file is an empty
// history, not an error — the first green run creates it.
func LoadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for scan.Scan() {
		line++
		if len(scan.Bytes()) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(scan.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	return out, scan.Err()
}

// AppendHistory appends one summary line to the history file, creating
// it if absent.
func AppendHistory(path string, e HistoryEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(data, '\n'))
	return err
}

// Drift flags experiments whose current wall_ms exceeds factor times
// their historical median — slow creep a single-baseline tolerance
// gate cannot see, because each run resets the comparison point. The
// returned messages are advisory (the gate does not fail on drift);
// experiments with fewer than 3 historical samples are skipped as
// statistically meaningless.
func Drift(hist []HistoryEntry, cur HistoryEntry, factor float64) []string {
	byID := map[string][]float64{}
	for _, e := range hist {
		for id, ms := range e.Runs {
			byID[id] = append(byID[id], ms)
		}
	}
	ids := make([]string, 0, len(cur.Runs))
	for id := range cur.Runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []string
	for _, id := range ids {
		samples := byID[id]
		if len(samples) < 3 {
			continue
		}
		sort.Float64s(samples)
		med := obs.Quantile(samples, 0.50)
		if ms := cur.Runs[id]; med > 0 && ms > factor*med {
			out = append(out, fmt.Sprintf("%s: %.0fms vs historical median %.0fms over %d run(s) (%.1fx)",
				id, ms, med, len(samples), ms/med))
		}
	}
	return out
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The exporter commands' output is pinned against bytes captured before
// the single-job and fleet paths shared one replay: a leaked "<job>/"
// series prefix, a reordered trace track or a moved metric would show
// up here and nowhere else.

// TestMetricsExportGolden pins `varuna-sim metrics region-failover`:
// the OpenMetrics text and the series CSV must match the committed
// files byte for byte.
func TestMetricsExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario export skipped in -short")
	}
	sc, err := loadScenario("region-failover")
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	out, err := observedRun(sc, "", nil, met, true)
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string][]byte{
		"region-failover.metrics.om": obs.OpenMetrics(met.Snapshot(obs.SimOnly), out.series),
		"region-failover.series.csv": out.series.CSV(),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from the golden (%d vs %d bytes)", file, len(got), len(want))
		}
	}
}

// traceDigests are the SHA-256 digests of `varuna-sim trace <name>`
// output. The traces run to hundreds of KB, so only digests are kept.
var traceDigests = map[string]string{
	"elastic":         "4f2be4b2e965fa3dbc6c5c38adfd49585eddb105acfc2e38d5b6262dd28ecb67",
	"region-failover": "5fe9e1a69fdba61c2c4a46941e30a00f6481f3b89cdd0381af197417a470d194",
	"multi-job":       "125327144e2f322e054954d1b2b0cd91dad6ad23c0265618d1300f4a0d9fe6f5",
}

// TestTraceDigestsPinned pins the Chrome trace export of one
// single-job scenario, one topology drill and the fleet scenario.
func TestTraceDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario traces skipped in -short")
	}
	for name, want := range traceDigests {
		t.Run(name, func(t *testing.T) {
			sc, err := loadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			if _, err := observedRun(sc, "", tr, obs.NewMetrics(), false); err != nil {
				t.Fatal(err)
			}
			data, err := tr.ChromeTrace()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("trace digest %s, want %s (%d bytes)", got, want, len(data))
			}
		})
	}
}

// The canonical pins below hold the same exports with the planner's
// cache-activity counters taken out: the cost-cache hit and miss
// counts and the pruned-candidate count depend on how a sweep reaches
// its decision, not on the decision. Everything else — every span,
// every decision, every other metric — must stay byte-identical when
// only the sweep's internals change.

// plannerCacheArgs are the planner/sweep instant args the canonical
// trace drops.
var plannerCacheArgs = []string{"cost_hits", "cost_misses", "candidates_pruned"}

// canonicalTrace rewrites every planner/sweep instant of a Chrome trace
// without its cache-activity args, reporting how many it rewrote;
// every other line is kept verbatim.
func canonicalTrace(data []byte) ([]byte, int, error) {
	lines := bytes.Split(data, []byte("\n"))
	n := 0
	for i, line := range lines {
		if !bytes.Contains(line, []byte(`"name":"sweep","cat":"planner"`)) {
			continue
		}
		body, comma := bytes.CutSuffix(line, []byte(","))
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			return nil, 0, err
		}
		if args, ok := ev["args"].(map[string]any); ok {
			for _, k := range plannerCacheArgs {
				delete(args, k)
			}
		}
		out, err := json.Marshal(ev)
		if err != nil {
			return nil, 0, err
		}
		if comma {
			out = append(out, ',')
		}
		lines[i] = out
		n++
	}
	return bytes.Join(lines, []byte("\n")), n, nil
}

// canonicalTraceDigests are the SHA-256 digests of canonicalTrace of
// `varuna-sim trace <name>` output.
var canonicalTraceDigests = map[string]string{
	"elastic":         "3b1f4ec1b3e7cecd92e35c28d3904c6ac41d32b85ec2f438421317c4b82d0738",
	"region-failover": "f0b6dc28de1905b890cb1239abc804429856e1ef4e725601ca9ba1324bc2d07f",
	"multi-job":       "e0cbba3d2e6524175fe80a336e1587ab1e59e6e0a9c20fa88573e8819cb53566",
}

// TestCanonicalTraceDigestsPinned pins the traces up to planner cache
// counters.
func TestCanonicalTraceDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario traces skipped in -short")
	}
	for name, want := range canonicalTraceDigests {
		t.Run(name, func(t *testing.T) {
			sc, err := loadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			if _, err := observedRun(sc, "", tr, obs.NewMetrics(), false); err != nil {
				t.Fatal(err)
			}
			data, err := tr.ChromeTrace()
			if err != nil {
				t.Fatal(err)
			}
			canon, n, err := canonicalTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("trace holds no planner/sweep instant to canonicalize")
			}
			sum := sha256.Sum256(canon)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("canonical trace digest %s, want %s", got, want)
			}
		})
	}
}

// TestMetricsExportCanonical pins `varuna-sim metrics region-failover`
// OpenMetrics output without the planner cost-cache hit-rate gauge.
func TestMetricsExportCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario export skipped in -short")
	}
	sc, err := loadScenario("region-failover")
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	out, err := observedRun(sc, "", nil, met, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, line := range bytes.SplitAfter(obs.OpenMetrics(met.Snapshot(obs.SimOnly), out.series), []byte("\n")) {
		if !bytes.Contains(line, []byte("varuna_planner_cost_hit_rate")) {
			got = append(got, line...)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "region-failover.canonical.metrics.om"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical metrics diverged from the golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPlannerLines: `varuna-sim run` prints one planner counter line
// for a single job and one per tenant for a fleet, and the report
// bytes stay the committed goldens — the counters never enter the
// JSON or the HTML report.
func TestPlannerLines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario runs skipped in -short")
	}
	for name, want := range map[string][]string{
		"elastic":   {"planner: "},
		"multi-job": {"planner deadline: ", "planner dollar: ", "planner batch: "},
	} {
		t.Run(name, func(t *testing.T) {
			sc, err := loadScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := observedRun(sc, "", nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(out.planner, "\n"), "\n")
			if len(lines) != len(want) {
				t.Fatalf("%d planner lines, want %d:\n%s", len(lines), len(want), out.planner)
			}
			for i, line := range lines {
				if !strings.HasPrefix(line, want[i]) || !strings.Contains(line, " candidates pruned)") {
					t.Errorf("line %d = %q, want prefix %q and a pruned-candidate count", i, line, want[i])
				}
			}
			rep, err := out.report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenario", "testdata", "goldens", name+".report.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(rep, '\n'), golden) {
				t.Errorf("report JSON diverged from the golden (%d vs %d bytes)", len(rep)+1, len(golden))
			}
			if bytes.Contains(out.html(), []byte("candidates pruned")) {
				t.Error("planner counters leaked into the HTML report")
			}
		})
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
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
	"elastic":         "e189bd9296b5261806a24aaf234c4532b6989fad8a8c6353c4f789f1ae6349e9",
	"region-failover": "563fcb5c93e1890d9c6398c3bf96b3d89323373602df6d1ca3bff28f8777943e",
	"multi-job":       "4c3bd39c9ec5fa41f96fa94ee40267602912aaf59e5d52fae3d200bc9657940f",
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

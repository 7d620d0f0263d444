// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time budget, checks that every output is
// correct, and prints one JSON result object as the last line of its
// standard output:
//
//	go run . --workload chaos-cold --seed 0 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// runs; with --trace 1 it carries the per-layer metrics of a traced
// run (spans recorded from this package around calls into each layer,
// plus the counters the program already exposes). README.md lists the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line of a run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options select one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// OutDir receives the span file and the scratch state directories.
	OutDir string
	// Small shrinks every workload (shorter scenario horizons, fewer
	// training steps, a one-member panel) so the benchmark's own tests
	// can run every workload quickly. Command runs never set it.
	Small bool
	// Fault plants a known defect in the outputs a workload checks; the
	// tests use it to show the checks catch it.
	Fault string
}

// Bench is the state of one run: options, the correctness ledger, the
// metrics and notes gathered so far, and the span recorder.
type Bench struct {
	Opts    Options
	Out     io.Writer
	metrics map[string]Metric
	spans   *Recorder

	attempted, failed int
	failures          []string
}

// workload is one named set of inputs the benchmark can run.
type workload struct {
	name string
	run  func(b *Bench) error
}

var workloads = []workload{
	{"chaos-cold", runChaosCold},
	{"chaos-warm", runChaosWarm},
	{"multi-job", runMultiJob},
	{"train-morph", runTrainMorph},
}

func main() {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.Seed, "seed", 0, "workload seed; 0 replays the committed inputs unchanged")
	flag.Float64Var(&o.Seconds, "seconds", 15, "how long the timed part measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the untraced end-to-end pass")
	flag.StringVar(&o.OutDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch state")
	flag.Parse()
	o.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := Run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// Run executes one workload and returns its result. Human-readable
// metric lines go to out as they are measured. An error means the run
// could not be set up or measured at all; a failed correctness check is
// reported in the Result instead.
func Run(o Options, out io.Writer) (*Result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.Seed < 0 {
		return nil, fmt.Errorf("--seed must not be negative")
	}
	// One process on at most two cores: the load the committed bounds
	// were measured under.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	b := &Bench{Opts: o, Out: out, metrics: map[string]Metric{}}
	if o.Trace {
		b.spans = NewRecorder()
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, procs)
	if err := w.run(b); err != nil {
		return nil, err
	}
	if o.Trace {
		path := filepath.Join(o.OutDir, fmt.Sprintf("spans-%s-seed%d.json", o.Workload, o.Seed))
		if err := b.spans.WriteFile(path); err != nil {
			return nil, err
		}
		b.spans.PrintSelfTimes(out)
		b.Set("obs.spans", float64(b.spans.Len()), "count")
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	for _, f := range b.failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
	res := &Result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]Metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", o.Workload)
	}
	errRate := float64(b.failed) / float64(b.attempted)
	fmt.Fprintf(out, "metric error_rate %.6g frac (%d failed of %d attempted)\n", errRate, b.failed, b.attempted)
	want := endToEnd
	if o.Trace {
		want = perLayer
	}
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.Workload, name)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

// endToEnd and perLayer are the metrics the result object carries with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names.
var endToEnd = []string{"wall_s", "setup_s", "alloc_mb"}

var perLayer = []string{
	"scenario.parse_ms", "scenario.compile_ms",
	"autoconfig.cold_sweep_ms", "autoconfig.sweeps", "autoconfig.sweep_frac",
	"autoconfig.decision_hit_ratio", "autoconfig.cost_hit_ratio",
	"autoconfig.stagecost_builds", "autoconfig.sim_anchor_runs",
	"calibrate.stagecosts_us", "sim.estimate_us", "sim.bubble_frac",
	"restart.state_bytes", "restart.state_save_ms", "restart.state_load_ms", "restart.price_us",
	"manager.residual_frac",
	"fleet.arbiter_ticks", "fleet.arbiter_frac",
	"engine.step_busy_s", "engine.save_ms", "engine.resume_ms", "engine.eval_ms", "checkpoint.bytes",
	"nn.matmul_us", "nn.matmul_atb_us", "nn.matmul_abt_us",
	"obs.overhead_frac", "obs.spans",
}

// Set records a metric and prints it as a human-readable line. Metrics
// outside the result's declared set are printed only.
func (b *Bench) Set(name string, v float64, unit string) {
	b.metrics[name] = Metric{Value: v, Unit: unit}
	fmt.Fprintf(b.Out, "metric %s %.6g %s\n", name, v, unit)
}

// Note prints a human-readable line that is not a metric.
func (b *Bench) Note(format string, args ...any) {
	fmt.Fprintf(b.Out, format+"\n", args...)
}

// Attempt counts one operation; a non-nil err counts it as failed.
func (b *Bench) Attempt(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, err.Error())
	}
}

// Check counts one correctness check.
func (b *Bench) Check(ok bool, format string, args ...any) {
	if ok {
		b.Attempt(nil)
		return
	}
	b.Attempt(fmt.Errorf(format, args...))
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

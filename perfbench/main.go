// Command perfbench is memsynth's benchmark driver: one process that runs
// one seeded workload, checks every output against a pinned oracle, and
// prints its metrics as the last line of standard output.
//
//	bash perfbench/run.sh --workload tso7-a1 --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it replays the workload through the layers' public functions,
// times each call from outside, and reports the per-layer metrics (spans
// are written under .bench_build/traces/). README.md describes the
// workloads and every metric. Neither workload draws anything at random:
// the seed is accepted, as the benchmark's interface requires, and names
// the trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// count books one attempted operation, failed when err is non-nil.
func (r *result) count(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// env is what every workload receives: its seeded inputs and where it may
// write.
type env struct {
	name    string
	seed    int64
	seconds time.Duration
	// scratch is a per-run directory under .bench_build, removed on exit.
	scratch string
	pins    *pinFile
	spec    *benchSpec
}

// benchSpec is the part of BENCHMARK.json the driver reads: the metrics a
// run must report, with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkMetrics requires a result to report exactly the listed metrics,
// each in its unit.
func checkMetrics(res *result, want []metricSpec) error {
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s: reported %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	return nil
}

type workload struct {
	run    func(*env) (*result, error)
	traced func(*env) (*result, error)
}

var workloads = map[string]workload{
	"tso7-a1":        {run: func(e *env) (*result, error) { return runCLI(e, tso7a1) }, traced: func(e *env) (*result, error) { return tracedCLI(e, tso7a1) }},
	"cluster-power5": {run: runCluster, traced: tracedCluster},
}

// buildDir holds everything the benchmark writes, relative to the root of
// the checkout it runs from.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run (tso7-a1, cluster-power5)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	writePins := flag.String("write-pins", "", "recompute the output oracle into this file and exit")
	flag.Parse()

	if *writePins != "" {
		if err := writePinFile(*writePins); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload tso7-a1|cluster-power5 --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	pins, err := loadPins(filepath.Join("perfbench", "pins.json"))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, scratch: scratch, pins: pins, spec: spec}
	run, want := w.run, spec.EndToEnd
	if *trace == 1 {
		run, want = w.traced, spec.PerLayer
	}
	res, err := run(e)
	os.RemoveAll(scratch)
	if err == nil {
		err = checkMetrics(res, want)
	}
	if err != nil {
		fatal(err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report(os.Stdout, *name, res)
}

// report prints one readable line per metric, then the JSON result line.
func report(f *os.File, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "%s %-34s %14.6g %s\n", name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%s fail_ratio %d/%d\n", name, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

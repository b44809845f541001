// Command benchledger writes the bench ledger, BENCH_synth.json: one row
// per benchmark of a fixed grid, each with its run count and the median
// and quartiles of every metric `go test -bench` reports (ns/op, B/op,
// allocs/op and every b.ReportMetric count), under a header naming the
// host's CPU model and GOMAXPROCS as `go test` reported them.
//
//	go run ./cmd/benchledger [-short] [-o BENCH_synth.json]
//
// Run it from the module root. It runs the grid one package at a time, so
// no two rows share the CPU, and writes nothing unless every package
// passes and every grid benchmark yields a row. Top-level sections of an
// existing output file that it does not own are carried over byte for
// byte.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"memsynth/internal/synth"
)

// grid is every ledger row source, by package.
var grid = []struct {
	pkg     string
	benches []string
}{
	{"./internal/synth", []string{"BenchmarkSynth", "BenchmarkExplore"}},
	{"./internal/admit", []string{"BenchmarkAdmitSynth", "BenchmarkDecide"}},
	{"./internal/canon", []string{"BenchmarkProgramKey"}},
	{"./internal/stress", []string{"BenchmarkStress"}},
}

// quartiles summarizes one metric over a row's runs.
type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type row struct {
	Name    string               `json:"name"`
	Runs    int                  `json:"runs"`
	Metrics map[string]quartiles `json:"metrics"`
}

// host is what a transcript tells of the machine it ran on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

// ledger is the part of the output file benchledger owns.
type ledger struct {
	EngineVersion string `json:"engine_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	host
	Short bool  `json:"short"`
	Rows  []row `json:"rows"`
}

// goTest runs one package's grid benchmarks and returns the transcript.
type goTest func(pkg, pattern string, short bool) ([]byte, error)

func main() {
	if err := run(os.Args[1:], runGoTest); err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(1)
	}
}

func run(args []string, test goTest) error {
	flags := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	short := flags.Bool("short", false, "small bounds and one run per row (CI)")
	out := flags.String("o", "BENCH_synth.json", "output path")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flags.Args())
	}
	l := ledger{
		EngineVersion: synth.EngineVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Short:         *short,
	}
	for _, g := range grid {
		transcript, err := test(g.pkg, "^("+strings.Join(g.benches, "|")+")$", *short)
		if err != nil {
			return fmt.Errorf("%s: %w\n%s", g.pkg, err, transcript)
		}
		rows, h, err := parse(transcript)
		if err != nil {
			return fmt.Errorf("%s: %w", g.pkg, err)
		}
		l.host = h
		for _, b := range g.benches {
			if !hasRow(rows, b) {
				return fmt.Errorf("%s: %s produced no row", g.pkg, b)
			}
		}
		l.Rows = append(l.Rows, rows...)
	}
	return write(*out, l)
}

func runGoTest(pkg, pattern string, short bool) ([]byte, error) {
	count := "5"
	if short {
		count = "1"
	}
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-count", count,
		"-short=" + strconv.FormatBool(short), "-timeout", "60m", pkg}
	fmt.Fprintln(os.Stderr, "benchledger: go", strings.Join(args, " "))
	return exec.Command("go", args...).CombinedOutput()
}

func hasRow(rows []row, bench string) bool {
	for _, r := range rows {
		if r.Name == bench || strings.HasPrefix(r.Name, bench+"/") {
			return true
		}
	}
	return false
}

// procSuffix is the -GOMAXPROCS suffix go test appends to benchmark names
// (none at GOMAXPROCS=1, so no grid name may itself end in -digits).
var procSuffix = regexp.MustCompile(`-(\d+)$`)

// parse reads a `go test -bench` transcript into rows, in first-seen
// order, and the host it ran on: the `cpu:` line, and GOMAXPROCS from the
// name suffix. A result line is a name, an iteration count and value/unit
// pairs; every other line, a `--- FAIL` one included, is skipped, since a
// failed benchmark already makes `go test` exit non-zero.
func parse(transcript []byte) ([]row, host, error) {
	var names []string
	samples := make(map[string]map[string][]float64)
	h := host{GOMAXPROCS: 1}
	for _, line := range strings.Split(string(transcript), "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			h.CPU = strings.TrimSpace(cpu)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if m := procSuffix.FindStringSubmatchIndex(name); m != nil {
			h.GOMAXPROCS, _ = strconv.Atoi(name[m[2]:m[3]])
			name = name[:m[0]]
		}
		if samples[name] == nil {
			names = append(names, name)
			samples[name] = make(map[string][]float64)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, h, fmt.Errorf("bad value in %q: %w", line, err)
			}
			samples[name][f[i+1]] = append(samples[name][f[i+1]], v)
		}
	}
	rows := make([]row, len(names))
	for i, name := range names {
		rows[i] = row{Name: name, Metrics: make(map[string]quartiles)}
		for unit, vs := range samples[name] {
			rows[i].Runs = max(rows[i].Runs, len(vs))
			rows[i].Metrics[unit] = summarize(vs)
		}
	}
	return rows, h, nil
}

// summarize returns the median and quartiles of vs, interpolating
// linearly between the closest ranks.
func summarize(vs []float64) quartiles {
	sort.Float64s(vs)
	at := func(p float64) float64 {
		pos := p * float64(len(vs)-1)
		i := int(pos)
		if i+1 == len(vs) {
			return vs[i]
		}
		return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

// write merges l into the JSON object at path: l's sections replace their
// namesakes, every other section keeps its bytes, and the keys come out
// sorted, so two writes differ only in values.
func write(path string, l ledger) error {
	sections := make(map[string]json.RawMessage)
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &sections); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	own, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(own, &sections); err != nil {
		return err
	}
	keys := make([]string, 0, len(sections))
	for k := range sections {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		name, _ := json.Marshal(k) // a string always encodes
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&buf, "  %s: %s%s", name, sections[k], sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

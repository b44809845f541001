package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const transcript = `goos: linux
goarch: amd64
pkg: memsynth/internal/admit
cpu: Intel(R) Xeon(R)
BenchmarkAdmitSynth/tso@7/addrs=1/admit=off-2         	       1	5074395570 ns/op	   6689074 executions	         0 executions_fast	1234 B/op	  56 allocs/op
BenchmarkAdmitSynth/tso@7/addrs=1/admit=off-2         	       1	5174395570 ns/op	   6689074 executions	         0 executions_fast	1236 B/op	  56 allocs/op
BenchmarkDecide/tso7-a1-2                             	 1000000	      1680 ns/op	     11.50 corpus_calls	       0 B/op	       0 allocs/op
PASS
ok  	memsynth/internal/admit	12.345s
`

func TestParseTranscript(t *testing.T) {
	rows, err := parse([]byte(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	off, decide := rows[0], rows[1]
	if off.Name != "BenchmarkAdmitSynth/tso@7/addrs=1/admit=off" || off.Runs != 2 {
		t.Errorf("first row %q with %d runs", off.Name, off.Runs)
	}
	if got := off.Metrics["ns/op"].Median; got != 5124395570 {
		t.Errorf("ns/op median %v", got)
	}
	if got := off.Metrics["executions"]; got != (quartiles{6689074, 6689074, 6689074}) {
		t.Errorf("executions %+v", got)
	}
	if decide.Name != "BenchmarkDecide/tso7-a1" || decide.Runs != 1 {
		t.Errorf("second row %q with %d runs", decide.Name, decide.Runs)
	}
	if got := decide.Metrics["corpus_calls"].Median; got != 11.5 {
		t.Errorf("corpus_calls %v", got)
	}
	for _, unit := range []string{"ns/op", "B/op", "allocs/op", "executions_fast"} {
		if _, ok := off.Metrics[unit]; !ok {
			t.Errorf("missing metric %s", unit)
		}
	}

	// A failed benchmark prints no result line, so it yields no row.
	failed := transcript + "BenchmarkStress/sc@4-2   \t--- FAIL: BenchmarkStress/sc@4-2\n    bench_test.go:38: 3 iterations observed model-forbidden outcomes\n"
	if rows, err := parse([]byte(failed)); err != nil || len(rows) != 2 || hasRow(rows, "BenchmarkStress") {
		t.Errorf("transcript with a --- FAIL line parsed to %+v (err %v), want the 2 rows above", rows, err)
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want quartiles
	}{
		{[]float64{7}, quartiles{7, 7, 7}},
		{[]float64{4, 1, 3, 2}, quartiles{Median: 2.5, Q1: 1.75, Q3: 3.25}},
		{[]float64{50, 10, 40, 20, 30}, quartiles{Median: 30, Q1: 20, Q3: 40}},
	} {
		if got := summarize(c.vs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.vs, got, c.want)
		}
	}
}

// fakeGoTest answers every package with the canned transcript, whose
// rows cover the grid, or with a fixed failure.
func fakeGoTest(fail error) goTest {
	return func(pkg, pattern string, short bool) ([]byte, error) {
		var b strings.Builder
		for _, g := range grid {
			for _, name := range g.benches {
				b.WriteString(name + "/x-2 \t 1\t 100 ns/op\t 8 B/op\t 1 allocs/op\n")
			}
		}
		return []byte(b.String()), fail
	}
}

const carried = `{
  "backend_cases": [
    {"backend": "sat",   "bound": 8,
      "completed": true}
  ],
  "zz_unknown": {"b": 2, "a": 1}
}
`

func TestCarryOverSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte(carried), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for i := 0; i < 2; i++ {
		if err := run([]string{"-short", "-o", path}, fakeGoTest(nil)); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("second write changed the file:\n%s\n---\n%s", outs[0], outs[1])
	}
	for _, section := range []string{
		"\"backend_cases\": [\n    {\"backend\": \"sat\",   \"bound\": 8,\n      \"completed\": true}\n  ]",
		`"zz_unknown": {"b": 2, "a": 1}`,
	} {
		if !bytes.Contains(outs[0], []byte(section)) {
			t.Errorf("section not carried byte for byte: %s\nin:\n%s", section, outs[0])
		}
	}
	keys := []string{"backend_cases", "engine_version", "go_version", "goarch", "goos", "rows", "short", "zz_unknown"}
	last := -1
	for _, k := range keys {
		i := bytes.Index(outs[0], []byte("\n  \""+k+"\": "))
		if i <= last {
			t.Errorf("top-level key %s out of order", k)
		}
		last = i
	}
}

func TestNoPartialLedger(t *testing.T) {
	missing := func(pkg, pattern string, short bool) ([]byte, error) {
		out, _ := fakeGoTest(nil)(pkg, pattern, short)
		return bytes.ReplaceAll(out, []byte("BenchmarkStress/"), []byte("BenchmarkOther/")), nil
	}
	for name, test := range map[string]goTest{
		"failing package": fakeGoTest(errors.New("exit status 1")),
		"missing row":     missing,
	} {
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := run([]string{"-o", path}, test); err == nil {
			t.Errorf("%s: run succeeded", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: wrote a ledger (stat err %v)", name, err)
		}
	}
}

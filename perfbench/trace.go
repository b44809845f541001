package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/synth"
)

// The traced run times, from the benchmark's own code, each call into a
// layer's public function. Spans (name, start, end, parent) are kept in
// memory and written out when the run ends. Calls made once per program
// or per execution are too many for one span each, so they are folded:
// per enclosing span and name the tracer keeps the call count and the
// summed duration. A span's self time is its duration minus its child
// spans and the folded calls directly inside it; the per-layer metrics
// compute it that way from the same accumulators.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// folded is every call of one name inside one span.
type folded struct {
	Parent int    `json:"parent"`
	Within string `json:"within,omitempty"` // enclosing folded call; "" when directly inside Parent
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	NS     int64  `json:"total_ns"`
}

// tracer is safe for concurrent use. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	folds []folded
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// fold records calls of name inside span parent.
func (t *tracer) fold(parent int, within, name string, a acc) {
	if t == nil || a.calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.folds = append(t.folds, folded{Parent: parent, Within: within, Name: name, Calls: a.calls, NS: a.ns})
}

// write saves the spans and folded calls under .bench_build/traces.
func (t *tracer) write(workload string, seed int64) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Spans    []span   `json:"spans"`
		Folded   []folded `json:"folded"`
	}{workload, seed, t.spans, t.folds})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), raw, 0o644)
}

// acc accumulates the calls of one public function.
type acc struct {
	calls int64
	ns    int64
}

// clock reads the time only when tracing, so the untraced replay pays for
// no clock reads.
type clock bool

func (c clock) now() time.Time {
	if c {
		return time.Now()
	}
	return time.Time{}
}

func (a *acc) add(c clock, t0 time.Time) {
	a.calls++
	if c {
		a.ns += int64(time.Since(t0))
	}
}

func (a acc) meanNS() float64 { return ratio(float64(a.ns), float64(a.calls)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers accumulates the engine replay's calls.
type engineLayers struct {
	genNS                   int64 // EnumeratePrograms calls, emit callbacks included
	emit, programKey        acc
	minBind, admBind, perRF acc
	enumerate, decide       acc
	visit, check, key       acc
	format                  acc
	distinct, entries       int64
	refuted, fast           int64
	forbidden, minimal      int64
}

type namedAcc struct {
	within, name string
	a            *acc
}

// genCalls and exploreCalls are the folded calls of the generate and
// explore phases, with their nesting.
func (l *engineLayers) genCalls() []namedAcc {
	return []namedAcc{
		{"", "synth.EnumeratePrograms.emit", &l.emit},
		{"synth.EnumeratePrograms.emit", "canon.ProgramKey", &l.programKey},
	}
}

func (l *engineLayers) exploreCalls() []namedAcc {
	return []namedAcc{
		{"", "minimal.Checker.Bind", &l.minBind},
		{"", "admit.Checker.Bind", &l.admBind},
		{"", "exec.ExtensionsPerRF", &l.perRF},
		{"", "exec.Enumerate", &l.enumerate},
		{"exec.Enumerate", "admit.Checker.Decide", &l.decide},
		{"exec.Enumerate", "exec.Enumerate.visit", &l.visit},
		{"exec.Enumerate.visit", "minimal.Checker.Check", &l.check},
		{"exec.Enumerate.visit", "canon.Key", &l.key},
	}
}

func snapshot(calls []namedAcc) []acc {
	s := make([]acc, len(calls))
	for i, c := range calls {
		s[i] = *c.a
	}
	return s
}

// foldSince folds the calls made since the snapshot into span id.
func (t *tracer) foldSince(id int, calls []namedAcc, before []acc) {
	for i, c := range calls {
		t.fold(id, c.within, c.name, acc{calls: c.a.calls - before[i].calls, ns: c.a.ns - before[i].ns})
	}
}

// foundEntry is one minimal witness with the axioms it is minimal for.
type foundEntry struct {
	axioms []string
	entry  synth.Entry
}

// replay re-runs synthesis of (m, opts) on one goroutine through the
// layers' public functions, mirroring the engine's per-program path: per
// size, EnumeratePrograms feeds a first-wins ProgramKey map; each distinct
// program is bound to a minimality checker (and an admissibility checker
// when the engine would use one), its executions are enumerated with
// Decide as the reads-from filter, Check runs on every visited execution
// and Key on minimal witnesses. It returns the result the engine would
// produce, with the replay's counts as its Stats. With a nil tracer it
// reads no clock.
func replay(tr *tracer, parent int, m memmodel.Model, opts synth.Options, l *engineLayers) (*synth.Result, error) {
	c := clock(tr != nil)
	base := *l // l accumulates across replays; this one's counts are the difference
	norm := opts.Normalize()
	var adm *admit.Checker
	if ok, _ := admit.Supports(m); ok && opts.Admit != "off" {
		adm = admit.NewChecker(m)
	}
	chk := minimal.NewChecker(m)
	axioms := m.Axioms()
	seenEntry := make(map[string]bool)
	var found []foundEntry

	for n := norm.MinEvents; n <= norm.MaxEvents; n++ {
		size := norm
		size.MinEvents, size.MaxEvents = n, n
		seen := make(map[string]bool)
		var winners []*litmus.Test

		before := snapshot(l.genCalls())
		gen := tr.begin(parent, fmt.Sprintf("synth.EnumeratePrograms size=%d", n))
		g0 := c.now()
		err := synth.EnumeratePrograms(m.Vocab(), size, func(t *litmus.Test) bool {
			e0 := c.now()
			key := canon.ProgramKey(t)
			l.programKey.add(c, e0)
			if !seen[key] {
				seen[key] = true
				winners = append(winners, t)
			}
			l.emit.add(c, e0)
			return true
		})
		if c {
			l.genNS += int64(time.Since(g0))
		}
		tr.end(gen)
		tr.foldSince(gen, l.genCalls(), before)
		if err != nil {
			return nil, err
		}
		l.distinct += int64(len(winners))

		before = snapshot(l.exploreCalls())
		explore := tr.begin(parent, fmt.Sprintf("explore size=%d", n))
		for _, t := range winners {
			t0 := c.now()
			chk.Bind(t)
			l.minBind.add(c, t0)
			eopts := exec.EnumerateOptions{}
			if adm != nil {
				t0 = c.now()
				adm.Bind(t, chk.Apps())
				l.admBind.add(c, t0)
				t0 = c.now()
				perRF := int64(exec.ExtensionsPerRF(t, eopts))
				l.perRF.add(c, t0)
				eopts.RFFilter = func(rf []int) bool {
					d0 := c.now()
					ok := adm.Decide(rf)
					l.decide.add(c, d0)
					if !ok {
						l.refuted++
						l.fast += perRF
					}
					return ok
				}
			}
			x0 := c.now()
			exec.Enumerate(t, eopts, func(x *exec.Execution) bool {
				v0 := c.now()
				verdict := chk.Check(x)
				l.check.add(c, v0)
				if len(verdict.ViolatedAxioms) > 0 {
					l.forbidden++
					if mins := verdict.MinimalFor(); len(mins) > 0 {
						l.minimal++
						k0 := c.now()
						key := canon.Key(x)
						l.key.add(c, k0)
						if !seenEntry[key] {
							seenEntry[key] = true
							l.entries++
						}
						names := make([]string, len(mins))
						for i, ai := range mins {
							names[i] = axioms[ai].Name
						}
						found = append(found, foundEntry{axioms: names, entry: synth.Entry{Test: t, Exec: x.Clone(), Key: key, Size: len(t.Events)}})
					}
				}
				l.visit.add(c, v0)
				return true
			})
			l.enumerate.add(c, x0)
		}
		tr.end(explore)
		tr.foldSince(explore, l.exploreCalls(), before)
	}

	res := &synth.Result{Model: m.Name(), Options: opts, Backend: "replay", PerAxiom: make(map[string]*synth.Suite)}
	res.ModelSource, res.ModelDigest = memmodel.SourceOf(m)
	var union []synth.Entry
	perAxiom := make(map[string][]synth.Entry)
	for _, f := range found {
		for _, name := range f.axioms {
			perAxiom[name] = append(perAxiom[name], f.entry)
		}
		union = append(union, f.entry)
	}
	res.Union = sortedSuite(m.Name(), "union", union)
	for _, a := range axioms {
		res.PerAxiom[a.Name] = sortedSuite(m.Name(), a.Name, perAxiom[a.Name])
	}
	res.Stats = synth.Stats{
		ProgramsRaw:    int(l.emit.calls - base.emit.calls),
		Programs:       int(l.distinct - base.distinct),
		Executions:     int(l.visit.calls - base.visit.calls),
		ExecutionsFast: int(l.fast - base.fast),
		Entries:        int(l.entries - base.entries),
	}
	return res, nil
}

// sortedSuite adds entries first-wins per symmetry class, in the order
// given, and sorts them by size then key, as the engine's merge does.
func sortedSuite(model, axiom string, entries []synth.Entry) *synth.Suite {
	s := synth.NewSuite(model, axiom, entries)
	sort.Slice(s.Entries, func(i, j int) bool {
		if s.Entries[i].Size != s.Entries[j].Size {
			return s.Entries[i].Size < s.Entries[j].Size
		}
		return s.Entries[i].Key < s.Entries[j].Key
	})
	return s
}

// sameCounts requires the replay's counts to equal an untraced engine
// run's Stats exactly.
func sameCounts(what string, replayed, engine synth.Stats) error {
	type pair struct {
		name    string
		got, at int
	}
	for _, p := range []pair{
		{"programs_raw", replayed.ProgramsRaw, engine.ProgramsRaw},
		{"programs", replayed.Programs, engine.Programs},
		{"executions", replayed.Executions, engine.Executions},
		{"executions_fast", replayed.ExecutionsFast, engine.ExecutionsFast},
		{"entries", replayed.Entries, engine.Entries},
	} {
		if p.got != p.at {
			return fmt.Errorf("%s: replay counts %s=%d, the engine %d", what, p.name, p.got, p.at)
		}
	}
	return nil
}

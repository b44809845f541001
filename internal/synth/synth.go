// Package synth implements the paper's synthesis methodology (§5): it
// exhaustively enumerates litmus tests up to a size bound over a memory
// model's instruction vocabulary, enumerates each test's candidate
// executions, applies the minimality criterion of package minimal, and
// collects one canonical representative of every symmetry class into
// per-axiom suites plus a per-model union suite.
//
// The engine is context-aware and streaming — extensions addressing the
// super-exponential runtimes the paper reports (§7):
//
//   - SynthesizeContext honors cancellation and deadlines, returning the
//     partial suites accumulated so far with Stats.Interrupted set.
//   - Per-program work fans out over Options.Workers goroutines. The
//     workers compute canonical program keys in parallel, then one
//     sequential pass in generation order keeps the generation-order-first
//     program of every symmetry class, and each program dedupes its own
//     findings. No dedupe state is shared between workers, and the output
//     is byte-identical for every worker count.
//   - Options.Progress streams phase transitions and counter snapshots
//     while the run is in flight.
//
// Each instruction-count size runs in two phases: generate (skeleton
// enumeration feeding canonical-key dedupe workers) and explore (workers
// enumerate executions of each distinct program and apply the minimality
// criterion). A canonical key embeds its program's encoding, so no key
// comes from two program classes: each program keeps the first finding of
// every key, the findings of all programs form a set, and the suites'
// final (Size, Key) sort fixes their order whatever order they arrive in.
package synth

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
)

// Entry is one synthesized litmus test: a program together with the
// forbidden outcome (execution) that witnesses its minimality.
type Entry struct {
	Test *litmus.Test
	Exec *exec.Execution
	// Key is the canonical symmetry-class key of (Test, Exec).
	Key string
	// Size is the instruction count.
	Size int
}

// Suite is a set of synthesized tests for one axiom (or the union).
type Suite struct {
	Model   string
	Axiom   string // "union" for the union suite
	Entries []Entry
	keys    map[string]bool
}

func newSuite(model, axiom string) *Suite {
	return &Suite{Model: model, Axiom: axiom, keys: make(map[string]bool)}
}

func (s *Suite) add(e Entry) bool {
	if s.keys[e.Key] {
		return false
	}
	s.keys[e.Key] = true
	s.Entries = append(s.Entries, e)
	return true
}

// sortEntries fixes a deterministic order (size, then canonical key).
func (s *Suite) sortEntries() {
	sort.Slice(s.Entries, func(i, j int) bool {
		if s.Entries[i].Size != s.Entries[j].Size {
			return s.Entries[i].Size < s.Entries[j].Size
		}
		return s.Entries[i].Key < s.Entries[j].Key
	})
}

// Has reports whether the suite contains the symmetry class of key.
func (s *Suite) Has(key string) bool { return s.keys[key] }

// CountUpTo returns the number of entries with Size <= bound.
func (s *Suite) CountUpTo(bound int) int {
	n := 0
	for _, e := range s.Entries {
		if e.Size <= bound {
			n++
		}
	}
	return n
}

// Stages breaks the synthesis work down by pipeline stage. Worker
// stages (Dedupe, Execution, Minimality) are summed across goroutines, so
// they are CPU time and can exceed Stats.Elapsed on parallel runs.
// Generation is the wall-clock time of the skeleton enumerator, excluding
// the time it spends blocked handing programs to dedupe workers that lag
// behind (backpressure). A record merged from shards sums every stage
// over the shards.
type Stages struct {
	// Generation is skeleton enumeration (thread shapes, instruction
	// assignments, addresses, deps, scopes).
	Generation time.Duration `json:"generation_ns"`
	// Dedupe is canonical program-key computation, the per-size pass that
	// keeps each symmetry class's first program, and the canonical keys
	// and per-program sets of the findings.
	Dedupe time.Duration `json:"dedupe_ns"`
	// Execution is candidate-execution enumeration.
	Execution time.Duration `json:"execution_ns"`
	// Minimality is the per-execution minimality criterion. With admit
	// on, executions whose coherence order breaks an edge admit forced
	// never reach it.
	Minimality time.Duration `json:"minimality_ns"`
}

// Stats is the one record of a run's work counters and stage times.
// Every surface carries it unchanged: progress events embed it, and the
// store manifest, the cluster shard upload and the daemon's responses
// encode it as JSON, with durations in integer nanoseconds and the stage
// times beside the counters.
type Stats struct {
	// ProgramsRaw counts generated programs before symmetry dedupe.
	ProgramsRaw int `json:"programs_raw"`
	// Programs counts distinct canonical programs whose executions were
	// explored.
	Programs int `json:"programs"`
	// Executions counts candidate executions actually enumerated. With
	// admit on, it includes the executions of admitted reads-from
	// assignments whose coherence order breaks a forced edge: they are
	// enumerated but never reach the minimality stage. It deliberately
	// excludes fast-decided work so partial (interrupted) runs report the
	// two kinds of explore progress separately instead of conflating them.
	Executions int `json:"executions"`
	// ExecutionsFast counts candidate executions decided by the fast
	// admissibility filter (internal/admit) without being enumerated:
	// each refuted reads-from assignment accounts for all of its
	// coherence/sc extensions. On a completed run Executions +
	// ExecutionsFast equals the admit-off Executions count.
	ExecutionsFast int `json:"executions_fast,omitempty"`
	// ForbiddenOutcomes counts distinct canonical forbidden
	// (program, outcome) pairs (only when Options.CountForbidden, which
	// turns admit off so that every pair is enumerated).
	ForbiddenOutcomes int `json:"forbidden_outcomes,omitempty"`
	// Entries counts distinct minimal entries found across all axioms —
	// always equal to len(Union.Entries).
	Entries int `json:"entries"`
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Stages is the per-stage timing breakdown, embedded so its JSON
	// keys sit beside the counters.
	Stages
	// Interrupted reports that the run was cancelled (context done)
	// before completing; the suites hold the partial results found
	// up to that point.
	Interrupted bool `json:"interrupted,omitempty"`
}

// MergeStats folds the Stats of the shards of one run into the run's
// record. Each shard generates, dedupes and explores only its own
// symmetry classes, so the shards' work is disjoint and every count and
// stage time adds: the merged counters equal a single-node run's.
// Elapsed is the slowest shard's, and the run is interrupted if any
// shard was.
func MergeStats(parts ...Stats) Stats {
	var s Stats
	for _, p := range parts {
		s = foldStats(s, p, func(x, y int64) int64 { return x + y })
	}
	return s
}

// MaxStats returns the field-wise maximum of a and b: a record that never
// reads below either input, for progress that must not go backwards.
func MaxStats(a, b Stats) Stats {
	return foldStats(a, b, func(x, y int64) int64 { return max(x, y) })
}

// foldStats is the one field list behind MergeStats and MaxStats: every
// count and stage time combines through add, Elapsed through max, and
// Interrupted through or.
func foldStats(a, b Stats, add func(x, y int64) int64) Stats {
	n := func(x, y int) int { return int(add(int64(x), int64(y))) }
	d := func(x, y time.Duration) time.Duration { return time.Duration(add(int64(x), int64(y))) }
	return Stats{
		ProgramsRaw:       n(a.ProgramsRaw, b.ProgramsRaw),
		Programs:          n(a.Programs, b.Programs),
		Executions:        n(a.Executions, b.Executions),
		ExecutionsFast:    n(a.ExecutionsFast, b.ExecutionsFast),
		ForbiddenOutcomes: n(a.ForbiddenOutcomes, b.ForbiddenOutcomes),
		Entries:           n(a.Entries, b.Entries),
		Elapsed:           max(a.Elapsed, b.Elapsed),
		Stages: Stages{
			Generation: d(a.Generation, b.Generation),
			Dedupe:     d(a.Dedupe, b.Dedupe),
			Execution:  d(a.Execution, b.Execution),
			Minimality: d(a.Minimality, b.Minimality),
		},
		Interrupted: a.Interrupted || b.Interrupted,
	}
}

// Result is the outcome of one synthesis run.
type Result struct {
	Model   string
	Options Options
	// ModelSource identifies where the model came from: "builtin" for
	// native Go models, or the definition language (e.g. "cat") for
	// compiled ones.
	ModelSource string
	// ModelDigest is the hash of the compiled model's normalized
	// definition ("" for built-ins). The store folds it into suite
	// digests so same-named but different definitions never collide.
	ModelDigest string
	// Backend records what produced this result: "enum" for an engine
	// run, "cluster" for a merge of shard results. It is provenance only:
	// both produce byte-identical suites, so it is excluded from store
	// digests.
	Backend string
	// Admit records whether the fast-admissibility filter ran: "fast"
	// when active, "off" when disabled by Options.Admit or
	// Options.CountForbidden or unsupported by the model
	// (internal/admit). Like Backend it is provenance only and excluded
	// from store digests.
	Admit    string
	PerAxiom map[string]*Suite
	Union    *Suite
	Stats    Stats
}

// AxiomNames returns the axiom suite names in sorted order.
func (r *Result) AxiomNames() []string {
	var names []string
	for name := range r.PerAxiom {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Synthesize runs exhaustive minimal-test synthesis for model m under the
// given bounds. It is a thin wrapper over SynthesizeContext with a
// background context; it panics on invalid Options (a programmer error —
// use Options.Validate or SynthesizeContext to handle it as a value).
func Synthesize(m memmodel.Model, opts Options) *Result {
	res, err := SynthesizeContext(context.Background(), m, opts)
	if err != nil {
		panic(fmt.Sprintf("synth.Synthesize: %v", err))
	}
	return res
}

// SynthesizeContext runs minimal-test synthesis for model m, honoring ctx
// cancellation and deadline. A cancelled run stops promptly and returns
// the suites synthesized so far with Stats.Interrupted set (and a nil
// error — partial results are results). It returns an error for invalid
// Options, when the model panics while a program is explored, and from
// fill, which only fails if two programs reported one class key.
func SynthesizeContext(ctx context.Context, m memmodel.Model, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := newEngine(m, opts)
	found, st, err := e.run(ctx, ShardSpec{Index: 0, Stride: 1})
	if err != nil {
		return nil, err
	}
	res := e.res
	res.Backend = "enum"
	res.Stats = st
	if err := res.fill(found); err != nil {
		return nil, err
	}
	return res, nil
}

// fill adds entries, in any order, to the suites of r — each under its
// axioms and the union — and sorts the suites. A single-node run and a
// shard merge both build their suites here. Each program reports a key at
// most once and no key comes from two program classes, so a key that
// reaches the union twice means one class was explored twice (by two
// shards of a merge): fill returns an error rather than keep either.
func (r *Result) fill(entries []ShardEntry) error {
	for _, se := range entries {
		if !r.Union.add(se.Entry) {
			return fmt.Errorf("synth: entry key %q found twice", se.Entry.Key)
		}
		for _, name := range se.Axioms {
			s, ok := r.PerAxiom[name]
			if !ok {
				return fmt.Errorf("synth: shard entry names unknown axiom %q", name)
			}
			s.add(se.Entry)
		}
	}
	r.Union.sortEntries()
	for _, s := range r.PerAxiom {
		s.sortEntries()
	}
	return nil
}

// engine holds one synthesis run's shared state. Counters are atomics so
// workers update them without locks and the progress sink can snapshot
// them at any moment.
type engine struct {
	model  memmodel.Model
	opts   Options
	axioms []memmodel.Axiom

	stopped atomic.Bool  // set when ctx is done; checked at cancellation points
	size    atomic.Int32 // instruction-count phase currently running

	// failure is the first panic an explore worker recovered from; it
	// also sets stopped, so the run winds down and returns it.
	failMu  sync.Mutex
	failure error

	programsRaw    atomic.Int64
	programs       atomic.Int64
	executions     atomic.Int64
	executionsFast atomic.Int64
	entries        atomic.Int64
	forbidden      atomic.Int64

	// admitOn enables the per-worker fast-admissibility checkers: the
	// model declares an acyclicity graph and Options.Admit did not opt
	// out.
	admitOn bool

	genNS    atomic.Int64
	dedupeNS atomic.Int64
	execNS   atomic.Int64
	minNS    atomic.Int64

	start time.Time
	prog  *progressSink
	res   *Result
}

// newResult builds the empty Result of a (model, options) run with its
// provenance filled in. SynthesizeContext and MergeShards both start
// from it, so a merged result reports the same ModelSource, ModelDigest
// and Admit as a single-node run. A counting run (CountForbidden) needs
// every forbidden outcome, including those of the reads-from assignments
// the filter would refute, so admit is off for it.
func newResult(m memmodel.Model, opts Options) *Result {
	res := &Result{
		Model:    m.Name(),
		Options:  opts,
		Admit:    "off",
		PerAxiom: make(map[string]*Suite),
		Union:    newSuite(m.Name(), "union"),
	}
	res.ModelSource, res.ModelDigest = memmodel.SourceOf(m)
	if opts.Admit != "off" && !opts.CountForbidden {
		if ok, _ := admit.Supports(m); ok {
			res.Admit = "fast"
		}
	}
	for _, a := range m.Axioms() {
		res.PerAxiom[a.Name] = newSuite(m.Name(), a.Name)
	}
	return res
}

func newEngine(m memmodel.Model, opts Options) *engine {
	e := &engine{
		model:  m,
		opts:   opts,
		axioms: m.Axioms(),
		res:    newResult(m, opts),
	}
	e.admitOn = e.res.Admit == "fast"
	if opts.Progress != nil {
		e.prog = &progressSink{fn: opts.Progress, e: e}
	}
	return e
}

// run is the engine's one size loop, shared by SynthesizeContext and
// SynthesizeShard. Each size generates and dedupes the shard's programs
// (the whole stream at stride 1) and explores every winner. It returns
// their findings, one per class key. A cancelled run stops promptly and reports
// Stats.Interrupted; a run whose model panicked stops and returns the
// panic as an error.
func (e *engine) run(ctx context.Context, shard ShardSpec) ([]ShardEntry, Stats, error) {
	e.start = time.Now()

	if ctx.Err() != nil {
		// Already-cancelled callers must see a deterministically
		// interrupted result (the async watcher below may lose the race
		// on a fast run).
		e.stopped.Store(true)
	}
	// Watch ctx on a side goroutine and fold it into one atomic flag the
	// hot paths can poll cheaply.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			e.stopped.Store(true)
		case <-watchDone:
		}
	}()
	if e.prog != nil {
		go e.prog.loop(e.opts.ProgressInterval, watchDone)
	}

	var found []ShardEntry
	for n := e.opts.MinEvents; n <= e.opts.MaxEvents; n++ {
		if e.stopped.Load() {
			break
		}
		e.size.Store(int32(n))
		e.prog.emit(PhaseGenerate, e.snapshot())
		winners := e.generateAndDedupe(n, shard)
		if e.stopped.Load() {
			break
		}
		e.prog.emit(PhaseExplore, e.snapshot())
		for _, fs := range e.explore(winners) {
			found = append(found, fs...)
		}
	}

	st := e.snapshot()
	e.prog.emit(PhaseDone, st)
	if e.failure != nil {
		return nil, st, e.failure
	}
	return found, st, nil
}

// fail records err as the run's failure, unless one is already recorded,
// and stops the run.
func (e *engine) fail(err error) {
	e.failMu.Lock()
	if e.failure == nil {
		e.failure = err
	}
	e.failMu.Unlock()
	e.stopped.Store(true)
}

// snapshot reads the run's counters and stage times. Progress events and
// the final Stats both come from it.
func (e *engine) snapshot() Stats {
	return Stats{
		ProgramsRaw:       int(e.programsRaw.Load()),
		Programs:          int(e.programs.Load()),
		Executions:        int(e.executions.Load()),
		ExecutionsFast:    int(e.executionsFast.Load()),
		ForbiddenOutcomes: int(e.forbidden.Load()),
		Entries:           int(e.entries.Load()),
		Elapsed:           time.Since(e.start),
		Stages: Stages{
			Generation: time.Duration(e.genNS.Load()),
			Dedupe:     time.Duration(e.dedupeNS.Load()),
			Execution:  time.Duration(e.execNS.Load()),
			Minimality: time.Duration(e.minNS.Load()),
		},
		Interrupted: e.stopped.Load(),
	}
}

// keyedProgram is one generated program and, once a dedupe worker has
// computed it, its canonical program key.
type keyedProgram struct {
	t   *litmus.Test
	key string
}

// dedupeBatch is the number of programs the generator hands to the dedupe
// workers per channel send.
const dedupeBatch = 64

// generateAndDedupe enumerates the shard's size-n program skeletons and
// fans their canonical-key computation out over the workers, in batches
// of dedupeBatch programs that the workers key in place. The generator
// keeps the batches in generation order, so one sequential pass over them
// then keeps the generation-order-first program of every symmetry class —
// whatever the worker count or scheduling. The shard owns whole classes
// (the generator's classHash is a class invariant), so its winners are
// exactly the single-node winners of those classes. It returns them in
// generation order, or nil for an interrupted size.
func (e *engine) generateAndDedupe(n int, shard ShardSpec) []*litmus.Test {
	// One queued batch per worker lets every worker start its next batch
	// while the generator fills another.
	ch := make(chan []keyedProgram, e.opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dedupeNS int64
			for batch := range ch {
				if e.stopped.Load() {
					continue // drain so the producer never blocks
				}
				t0 := time.Now()
				for i := range batch {
					batch[i].key = canon.ProgramKey(batch[i].t)
				}
				dedupeNS += int64(time.Since(t0))
			}
			e.dedupeNS.Add(dedupeNS)
		}()
	}

	gen := newGenerator(e.model.Vocab(), e.opts, shard)
	// Generation time excludes the sends that block because the dedupe
	// workers lag behind.
	var blockedNS int64
	var batches [][]keyedProgram
	send := func(batch []keyedProgram) {
		batches = append(batches, batch)
		select {
		case ch <- batch:
		default:
			t0 := time.Now()
			ch <- batch
			blockedNS += int64(time.Since(t0))
		}
	}
	batch := make([]keyedProgram, 0, dedupeBatch)
	raw := 0
	t0 := time.Now()
	completed := gen.run(n, func(t *litmus.Test) bool {
		if e.stopped.Load() {
			return false
		}
		e.programsRaw.Add(1)
		raw++
		batch = append(batch, keyedProgram{t: t})
		if len(batch) == dedupeBatch {
			send(batch)
			batch = make([]keyedProgram, 0, dedupeBatch)
		}
		return true
	})
	if completed && len(batch) > 0 {
		send(batch)
	}
	e.genNS.Add(int64(time.Since(t0)) - blockedNS)
	close(ch)
	wg.Wait()
	// An interrupted size is discarded whole; its batches may hold
	// programs no worker keyed.
	if !completed || e.stopped.Load() {
		return nil
	}

	// Every raw program may be a winner, so sizing both from the raw
	// count spares their growth.
	t0 = time.Now()
	seen := make(map[string]struct{}, raw)
	winners := make([]*litmus.Test, 0, raw)
	for _, batch := range batches {
		for _, p := range batch {
			if _, dup := seen[p.key]; !dup {
				seen[p.key] = struct{}{}
				winners = append(winners, p.t)
			}
		}
	}
	e.programs.Add(int64(len(winners)))
	e.dedupeNS.Add(int64(time.Since(t0)))
	return winners
}

// explore fans the execution exploration of the winners out over the
// workers (work-stealing by index) and returns their findings: results[i]
// belongs to winners[i]. Each worker owns one explorer, so its pooled
// contexts and buffers are amortized across the size's programs. A panic
// in the model's code (an axiom or its relaxation spec) fails the run
// rather than the process: the worker recovers and records it with the
// model, size and program.
func (e *engine) explore(winners []*litmus.Test) [][]ShardEntry {
	results := make([][]ShardEntry, len(winners))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range e.opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t *litmus.Test
			defer func() {
				if r := recover(); r != nil {
					e.fail(fmt.Errorf("synth: model %s panicked at size %d on program %v: %v",
						e.model.Name(), e.size.Load(), t, r))
				}
			}()
			w := e.newExplorer()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(winners) || e.stopped.Load() {
					return
				}
				t = winners[i]
				results[i] = w.process(t)
			}
		}()
	}
	wg.Wait()
	return results
}

// explorer is one explore worker's state, kept from one program to the
// next: its minimal and admit checkers (with their pooled contexts), its
// execution enumerator, the per-program key sets, and the enumeration
// callbacks, bound once as method values. A warm explorer processes a
// program with no finding without allocating. An explorer is not safe
// for concurrent use; each worker owns one.
type explorer struct {
	e     *engine
	c     *minimal.Checker
	adm   *admit.Checker // nil when admit is off
	en    exec.Enumerator
	visit func(*exec.Execution) bool
	eopts exec.EnumerateOptions // RFFilter and Stop when admit is on

	// The program being processed and its counts, reset by process.
	t                        *litmus.Test
	found                    []ShardEntry
	entryKeys, forbiddenKeys map[string]struct{}
	execs, fastExecs         int64
	minNS, dedupeNS          int64
	perRF, rfPolls           int64
	completed                bool
}

func (e *engine) newExplorer() *explorer {
	w := &explorer{
		e:             e,
		c:             minimal.NewChecker(e.model),
		entryKeys:     make(map[string]struct{}),
		forbiddenKeys: make(map[string]struct{}),
	}
	w.visit = w.check
	if e.admitOn {
		w.adm = admit.NewChecker(e.model)
		w.eopts.Stop = w.stop
		w.eopts.RFFilter = w.filter
	}
	return w
}

// process explores the executions of t and applies the minimality
// criterion through the explorer's pooled checker. The enumerator visits
// every candidate execution. With admit on, adm filters reads-from
// assignments before their coherence orders are enumerated: a refuted
// assignment's extensions are counted as fast-decided instead of visited.
// An admitted assignment's extensions are all visited and counted, but
// one whose coherence order breaks an edge Decide forced skips the
// minimality check: it cannot be minimal (both filters are sound, so
// every finding an unfiltered run makes survives).
//
// The findings carry their axiom names, one finding per distinct entry
// key: a repeat of a key within the program is a symmetric image of an
// execution already found, with the same axiom set
// (TestEntryKeysStayInProgramClass checks this), so it returns before its
// execution is cloned. The distinct entry and forbidden-outcome keys are
// counted per program: a canonical key embeds its program's encoding, so
// no key is shared by two program classes and the per-program counts add
// up to the run's. On cancellation mid-program the partial findings are
// discarded, and so is their entry count (the other counters keep what
// was actually checked).
func (w *explorer) process(t *litmus.Test) []ShardEntry {
	e := w.e
	w.t, w.found, w.completed = t, nil, true
	w.execs, w.fastExecs, w.minNS, w.dedupeNS, w.rfPolls = 0, 0, 0, 0, 0
	if len(w.entryKeys) > 0 {
		clear(w.entryKeys)
	}
	if len(w.forbiddenKeys) > 0 {
		clear(w.forbiddenKeys)
	}

	w.c.Bind(t)
	t0 := time.Now()
	// sc orders are quantified inside the checker (they are auxiliary, not
	// part of the outcome), so enumeration here covers rf and co only.
	if w.adm != nil {
		w.adm.Bind(t, w.c.Apps())
		w.perRF = int64(exec.ExtensionsPerRF(t, w.eopts))
	}
	w.en.Enumerate(t, w.eopts, w.visit)
	e.execNS.Add(int64(time.Since(t0)) - w.minNS - w.dedupeNS)
	e.minNS.Add(w.minNS)
	e.dedupeNS.Add(w.dedupeNS)
	e.executions.Add(w.execs)
	e.executionsFast.Add(w.fastExecs)
	e.forbidden.Add(int64(len(w.forbiddenKeys)))
	w.t = nil
	if !w.completed {
		return nil
	}
	e.entries.Add(int64(len(w.entryKeys)))
	return w.found
}

// stop polls for cancellation at the rf level. The visit callback polls
// too, but a heavily filtered program may visit almost nothing.
func (w *explorer) stop() bool {
	w.rfPolls++
	if w.rfPolls&0x3F == 0x3F && w.e.stopped.Load() {
		w.completed = false
		return true
	}
	return false
}

// filter is the RF filter: admit's Decide, counting a refuted
// assignment's extensions as fast-decided.
func (w *explorer) filter(rf []int) bool {
	if w.adm.Decide(rf) {
		return true
	}
	w.fastExecs += w.perRF
	return false
}

// check is the visit callback: it applies the minimality criterion to x
// and records a new finding.
func (w *explorer) check(x *exec.Execution) bool {
	e := w.e
	if w.execs&0xFF == 0xFF && e.stopped.Load() {
		w.completed = false
		return false
	}
	w.execs++
	if w.adm != nil && !w.adm.Extends(x.CO) {
		return true
	}
	m0 := time.Now()
	verdict := w.c.Check(x)
	w.minNS += int64(time.Since(m0))
	if len(verdict.ViolatedAxioms) == 0 {
		return true
	}
	var key string
	if e.opts.CountForbidden {
		d0 := time.Now()
		key = canon.Key(x)
		w.forbiddenKeys[key] = struct{}{}
		w.dedupeNS += int64(time.Since(d0))
	}
	mins := verdict.MinimalFor()
	if len(mins) == 0 {
		return true
	}
	d0 := time.Now()
	if key == "" {
		key = canon.Key(x)
	}
	_, repeat := w.entryKeys[key]
	w.entryKeys[key] = struct{}{}
	w.dedupeNS += int64(time.Since(d0))
	if repeat {
		return true
	}
	names := make([]string, len(mins))
	for k, ai := range mins {
		names[k] = e.axioms[ai].Name
	}
	w.found = append(w.found, ShardEntry{
		Axioms: names,
		Entry:  Entry{Test: w.t, Exec: x.Clone(), Key: key, Size: len(w.t.Events)},
	})
	return true
}

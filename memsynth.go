// Package memsynth synthesizes comprehensive litmus-test suites directly
// from axiomatic memory consistency model specifications, implementing
// Lustig, Wright, Papakonstantinou & Giroux, "Automated Synthesis of
// Comprehensive Memory Model Litmus Test Suites" (ASPLOS 2017).
//
// The library generates, for any supported (or user-defined) memory model,
// every litmus test up to a size bound that satisfies the paper's
// minimality criterion: the test has a forbidden outcome that becomes
// observable under every applicable instruction relaxation (remove
// instruction, demote memory order, demote fence, decompose RMW, remove
// dependency, demote scope). Suites are produced per axiom and as a
// per-model union, with Mador-Haim-style symmetry reduction.
//
// # Quick start
//
//	model, _ := memsynth.ModelByName("tso")
//	result := memsynth.Synthesize(model, memsynth.Options{MaxEvents: 4})
//	for _, entry := range result.Union.Entries {
//		fmt.Println(entry.Test, "forbids", entry.Exec.OutcomeString())
//	}
//
// Built-in models: sc, tso, power, armv7, scc (the paper's Streamlined
// Causal Consistency), c11 (an RC11-flavored C/C++ model), and hsa (a
// scoped SCC variant). Custom models are defined with DefineModel.
//
// The package is a facade over the internal packages: litmus tests
// (internal/litmus), execution enumeration and perturbed relational views
// (internal/exec), axiomatic models (internal/memmodel), the minimality
// criterion (internal/minimal), symmetry reduction (internal/canon), the
// synthesis engine (internal/synth), baseline suites and subtest
// containment (internal/suites), a diy-style cycle generator
// (internal/diy), and an operational x86-TSO machine (internal/tsosim).
// The paper's Alloy/Kodkod/MiniSAT pipeline is reproduced by a bounded
// relational model finder over a CDCL SAT solver (internal/rml,
// internal/sat, internal/synth/satgen), which tests use as an independent
// check on the engine; nothing behind this facade calls it.
package memsynth

import (
	"context"
	"io"

	"memsynth/internal/canon"
	"memsynth/internal/cat"
	"memsynth/internal/diy"
	"memsynth/internal/exec"
	"memsynth/internal/harness"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/randgen"
	"memsynth/internal/render"
	"memsynth/internal/stress"
	"memsynth/internal/suites"
	"memsynth/internal/synth"
	"memsynth/internal/tsosim"
)

// Re-exported core types. The aliases make the internal types part of the
// public API without duplicating them.
type (
	// Test is a litmus test (a small multi-threaded program).
	Test = litmus.Test
	// Event is one instruction of a test.
	Event = litmus.Event
	// Op is a single-instruction specification used to build tests.
	Op = litmus.Op
	// Option customizes test construction.
	Option = litmus.Option
	// Kind classifies instructions (read / write / fence).
	Kind = litmus.Kind
	// Order is a memory-ordering annotation.
	Order = litmus.Order
	// FenceKind identifies fence instructions.
	FenceKind = litmus.FenceKind
	// Scope is a synchronization scope for scoped models.
	Scope = litmus.Scope
	// DepType is a dependency flavor (addr / data / ctrl).
	DepType = litmus.DepType

	// Execution is one candidate execution (= outcome) of a test.
	Execution = exec.Execution
	// View exposes the (possibly perturbed) relations of an execution to
	// axioms.
	View = exec.View
	// Perturb is one instruction-relaxation application.
	Perturb = exec.Perturb

	// Model is an axiomatic memory consistency model.
	Model = memmodel.Model
	// Axiom is one named model constraint.
	Axiom = memmodel.Axiom
	// Vocab is a model's synthesis vocabulary.
	Vocab = memmodel.Vocab
	// RelaxSpec describes the relaxations a model admits.
	RelaxSpec = memmodel.RelaxSpec

	// Options bounds a synthesis run. Use Options.Validate to check
	// bounds before a long run.
	Options = synth.Options
	// Result is the outcome of a synthesis run.
	Result = synth.Result
	// Suite is a set of synthesized tests for one axiom.
	Suite = synth.Suite
	// Entry is one synthesized test with its forbidden-outcome witness.
	Entry = synth.Entry
	// SynthStats reports a run's work counters, per-stage timings, and
	// the Interrupted flag of a cancelled run.
	SynthStats = synth.Stats
	// StageTimes is the per-stage timing breakdown of SynthStats.
	StageTimes = synth.Stages
	// ProgressEvent is one streamed engine observation delivered to
	// Options.Progress (phase transitions and counter snapshots).
	ProgressEvent = synth.ProgressEvent

	// Verdict reports the minimality analysis of one execution.
	Verdict = minimal.Verdict

	// BaselineTest is an entry of a hand-curated comparison suite.
	BaselineTest = suites.BaselineTest
)

// Instruction constructors and test-building options.
var (
	// R returns a plain load of the given address.
	R = litmus.R
	// W returns a plain store to the given address.
	W = litmus.W
	// F returns a fence of the given kind.
	F = litmus.F
	// Racq returns an acquire load.
	Racq = litmus.Racq
	// Wrel returns a release store.
	Wrel = litmus.Wrel
	// Rsc returns a sequentially consistent load.
	Rsc = litmus.Rsc
	// Wsc returns a sequentially consistent store.
	Wsc = litmus.Wsc
	// WithDep adds a dependency edge between two instructions.
	WithDep = litmus.WithDep
	// WithRMW marks two adjacent instructions as an atomic RMW pair.
	WithRMW = litmus.WithRMW
	// WithGroups assigns scope groups to threads.
	WithGroups = litmus.WithGroups
)

// Enum re-exports.
const (
	OPlain   = litmus.OPlain
	OConsume = litmus.OConsume
	OAcquire = litmus.OAcquire
	ORelease = litmus.ORelease
	OAcqRel  = litmus.OAcqRel
	OSC      = litmus.OSC

	FMFence = litmus.FMFence
	FLwSync = litmus.FLwSync
	FSync   = litmus.FSync
	FISync  = litmus.FISync
	FAcqRel = litmus.FAcqRel
	FSC     = litmus.FSC
	FAcq    = litmus.FAcq
	FRel    = litmus.FRel

	ScopeNone = litmus.ScopeNone
	ScopeWG   = litmus.ScopeWG
	ScopeSys  = litmus.ScopeSys

	DepAddr = litmus.DepAddr
	DepData = litmus.DepData
	DepCtrl = litmus.DepCtrl

	KRead  = litmus.KRead
	KWrite = litmus.KWrite
	KFence = litmus.KFence
)

// NewTest builds a litmus test from per-thread instruction lists.
func NewTest(name string, threads [][]Op, opts ...Option) *Test {
	return litmus.New(name, threads, opts...)
}

// Models returns every visible memory model: built-ins plus any
// registered via RegisterModel, sorted by name.
func Models() []Model { return memmodel.Default.All() }

// ModelByName returns the model with the given name: models registered
// via RegisterModel first, then built-ins (sc, tso, power, armv7, armv8,
// scc, c11, hsa). An unknown name's error lists everything available.
func ModelByName(name string) (Model, error) { return memmodel.ByName(name) }

// DefineModel constructs a custom axiomatic memory model.
func DefineModel(name string, axioms []Axiom, vocab Vocab, relax RelaxSpec) Model {
	return memmodel.Define(name, axioms, vocab, relax)
}

// CompileModel compiles a cat-style textual model definition (see
// DESIGN.md §9 and examples/cat/) into a Model. The result also carries
// the definition's normalized source digest, which the suite store folds
// into content addresses.
func CompileModel(src string) (Model, error) { return cat.Compile(src) }

// RegisterModel makes a model resolvable by name through ModelByName and
// Models. Registering a name again replaces the previous definition.
func RegisterModel(m Model) error { return memmodel.Default.Register(m) }

// Progress event phases (see ProgressEvent.Phase).
const (
	PhaseGenerate = synth.PhaseGenerate
	PhaseExplore  = synth.PhaseExplore
	PhaseTick     = synth.PhaseTick
	PhaseDone     = synth.PhaseDone
)

// Synthesize exhaustively generates the minimal litmus-test suites of the
// model within the given bounds (paper §5). It is a thin wrapper over
// SynthesizeContext with a background context; it panics on invalid
// Options.
func Synthesize(m Model, opts Options) *Result { return synth.Synthesize(m, opts) }

// SynthesizeContext is Synthesize with cancellation, deadline, and
// progress streaming: a cancelled run stops promptly and returns the
// partial suites found so far with Stats.Interrupted set. The only error
// returned is an Options validation failure.
func SynthesizeContext(ctx context.Context, m Model, opts Options) (*Result, error) {
	return synth.SynthesizeContext(ctx, m, opts)
}

// Outcome pairs one execution of a test with its validity under a model.
type Outcome struct {
	Exec  *Execution
	Valid bool
}

// Outcomes enumerates every candidate execution of t and classifies it
// under m — the herd-style litmus checking workflow.
func Outcomes(m Model, t *Test) []Outcome {
	out, _ := OutcomesContext(context.Background(), m, t)
	return out
}

// OutcomesContext is Outcomes with cancellation: it stops early when ctx
// is done and returns the outcomes classified so far along with ctx.Err().
// Each (rf, co) execution is listed once. The sc order is auxiliary: an
// outcome is valid when the model holds under some order of
// exec.SCOrders, and its execution then carries the first such order.
func OutcomesContext(ctx context.Context, m Model, t *Test) ([]Outcome, error) {
	var out []Outcome
	n := 0
	valid := memmodel.ValidUnderSomeSC(m, t)
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *Execution) bool {
		if n&63 == 0 && ctx.Err() != nil {
			return false
		}
		n++
		out = append(out, Outcome{Exec: x.Clone(), Valid: valid(x)})
		return true
	})
	return out, ctx.Err()
}

// OutcomeAllowed reports whether some valid execution of t under m
// satisfies pred.
func OutcomeAllowed(m Model, t *Test, pred func(*Execution) bool) bool {
	allowed, _ := OutcomeAllowedContext(context.Background(), m, t, pred)
	return allowed
}

// OutcomeAllowedContext is OutcomeAllowed with cancellation: it stops
// early when ctx is done and returns ctx.Err() (the bool is then the
// verdict over the executions checked so far). Like OutcomesContext it
// quantifies over the sc orders: an execution is valid when some order
// admits it.
func OutcomeAllowedContext(ctx context.Context, m Model, t *Test, pred func(*Execution) bool) (bool, error) {
	allowed := false
	n := 0
	valid := memmodel.ValidUnderSomeSC(m, t)
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *Execution) bool {
		if n&63 == 0 && ctx.Err() != nil {
			return false
		}
		n++
		if pred(x) && valid(x) {
			allowed = true
			return false
		}
		return true
	})
	if allowed {
		return true, nil
	}
	return false, ctx.Err()
}

// CheckMinimal evaluates the paper's minimality criterion for execution x.
func CheckMinimal(m Model, x *Execution) Verdict {
	return minimal.Check(m, memmodel.Applications(m, x.Test), x)
}

// IsMinimal reports whether x is a minimal violation of the named axiom.
func IsMinimal(m Model, axiom string, x *Execution) (bool, error) {
	return minimal.IsMinimal(m, axiom, x)
}

// Relaxations lists the instruction-relaxation applications m admits on t
// (the domain the minimality criterion quantifies over).
func Relaxations(m Model, t *Test) []Perturb { return memmodel.Applications(m, t) }

// RelaxationTags returns the paper-Table-2 row for m: which relaxation
// kinds apply.
func RelaxationTags(m Model) []string { return memmodel.RelaxationTags(m) }

// CanonicalKey returns the symmetry-class key of a (test, execution) pair.
func CanonicalKey(x *Execution) string { return canon.Key(x) }

// CanonicalProgramKey returns the symmetry-class key of a program.
func CanonicalProgramKey(t *Test) string { return canon.ProgramKey(t) }

// OwensSuite returns the reconstructed x86-TSO baseline suite (paper §6.1).
func OwensSuite() []BaselineTest { return suites.Owens() }

// CambridgeSuite returns the reconstructed Power baseline suite (paper §6.2).
func CambridgeSuite() []BaselineTest { return suites.Cambridge() }

// Contains reports whether small embeds in big as a subtest (paper Fig. 10).
func Contains(big, small *Execution) bool { return suites.Contains(big, small) }

// DiyEdge is a critical-cycle edge for the diy-style baseline generator.
type DiyEdge = diy.Edge

// DiyGenerate enumerates and realizes critical cycles over the alphabet —
// the related-work baseline the paper contrasts with (§2.1).
func DiyGenerate(alphabet []DiyEdge, minLen, maxLen int) []*Execution {
	return diy.Generate(alphabet, minLen, maxLen)
}

// DiyTSOAlphabet returns a diy edge alphabet suitable for exploring TSO.
func DiyTSOAlphabet() []DiyEdge { return diy.TSOAlphabet() }

// DiyPowerAlphabet returns a diy edge alphabet for Power.
func DiyPowerAlphabet() []DiyEdge { return diy.PowerAlphabet() }

// RunTSOMachine runs t on the operational x86-TSO abstract machine and
// returns its outcome set — the hardware stand-in used to validate the
// axiomatic TSO model.
func RunTSOMachine(t *Test) (map[string]tsosim.Outcome, error) { return tsosim.Run(t) }

// MachineFault selects a seeded implementation bug of the x86-TSO machine.
type MachineFault = tsosim.Fault

// AllMachineFaults returns the seeded bug classes of the x86-TSO machine.
func AllMachineFaults() []MachineFault { return tsosim.AllFaults() }

// RunTSOMachineFaulty runs t on an x86-TSO machine with the given seeded
// bug.
func RunTSOMachineFaulty(t *Test, f MachineFault) (map[string]tsosim.Outcome, error) {
	return tsosim.RunFaulty(t, f)
}

// FaultDetection is one row of the detection matrix: whether the suite
// exposed a seeded fault and the first test that did.
type FaultDetection = harness.DetectionRow

// FaultDetectionMatrix runs the suite against every fault-injected x86-TSO
// machine variant (plus the correct one) and reports which bugs the suite
// detects — the black-box testing loop synthesized suites feed (paper §1).
func FaultDetectionMatrix(m Model, tests []*Test) []FaultDetection {
	return harness.DetectionMatrix(m, tests)
}

// FaultDetectionMatrixContext is FaultDetectionMatrix with cancellation:
// it stops between machine variants when ctx is done and returns the rows
// completed so far along with ctx.Err().
func FaultDetectionMatrixContext(ctx context.Context, m Model, tests []*Test) ([]FaultDetection, error) {
	return harness.DetectionMatrixContext(ctx, m, tests)
}

// CheckImplementation runs one test on an implementation (a function from
// test to observed outcome set) and returns the forbidden outcomes it
// exhibits.
func CheckImplementation(m Model, t *Test, run func(*Test) (map[string]tsosim.Outcome, error)) ([]harness.Violation, error) {
	return harness.Check(m, t, run)
}

// StressMode selects the native stress executor's compile scheme.
type StressMode = stress.Mode

// Stress compile modes: atomic (race-clean, sound — every observed
// outcome is a real interleaving) and plain (deliberately unsynchronized;
// refused under the race detector).
const (
	StressAtomic = stress.ModeAtomic
	StressPlain  = stress.ModePlain
)

// ParseStressMode parses "atomic" or "plain".
func ParseStressMode(s string) (StressMode, error) { return stress.ParseMode(s) }

// StressOptions configures a native stress run (iterations, batching,
// seed, compile mode).
type StressOptions = stress.Options

// StressReport is the observed-outcome histogram of one stress-executed
// test, keyed identically to the abstract machines' outcomes.
type StressReport = stress.Report

// StressTest executes t natively on this host — the litmus7-style closing
// of the loop from synthesized suites to real hardware.
func StressTest(t *Test, opts StressOptions) (*StressReport, error) { return stress.Run(t, opts) }

// StressTestContext is StressTest with cancellation between batches; a
// cancelled run returns its partial histogram with Interrupted set.
func StressTestContext(ctx context.Context, t *Test, opts StressOptions) (*StressReport, error) {
	return stress.RunContext(ctx, t, opts)
}

// StressCrossCheck marks each observed outcome of rep against m's allowed
// set (filling Allowed and Unexplained) and returns the forbidden ones.
func StressCrossCheck(m Model, t *Test, rep *StressReport) []harness.Violation {
	return harness.CrossCheck(m, t, rep)
}

// StressSuiteReport aggregates a suite-wide native stress run with the
// model cross-check applied to every test.
type StressSuiteReport = harness.StressSuiteReport

// StressSuite stress-executes every test on this host and cross-checks
// observed outcomes against m. Cancelling ctx stops between tests.
func StressSuite(ctx context.Context, m Model, tests []*Test, opts StressOptions) *StressSuiteReport {
	return harness.RunStressSuite(ctx, m, tests, opts, nil)
}

// FaultDetectionMatrixStress extends the fault-detection matrix with a
// host row: after the simulator variants, the suite is stress-executed
// natively and cross-checked (row Machine "host:<mode>").
func FaultDetectionMatrixStress(ctx context.Context, m Model, tests []*Test, opts StressOptions) ([]FaultDetection, *StressSuiteReport, error) {
	return harness.DetectionMatrixStressContext(ctx, m, tests, opts)
}

// Spec is a parsed litmus file: a test plus an optional forbidden outcome.
type Spec = litmus.Spec

// OutcomeCond is one conjunct of a parsed outcome specification.
type OutcomeCond = litmus.OutcomeCond

// ParseTest reads a litmus test in the textual format (see
// internal/litmus.Parse for the grammar).
func ParseTest(r io.Reader) (*Spec, error) { return litmus.Parse(r) }

// FormatTest renders t in the textual format accepted by ParseTest.
func FormatTest(t *Test) string { return litmus.Format(t) }

// FormatSpec renders a spec — the test plus its forbid: line when present —
// in the textual format accepted by ParseTest.
func FormatSpec(s *Spec) string { return litmus.FormatSpec(s) }

// FormatSuite renders specs as one suite file: blank-line-separated blocks
// in the format accepted by ParseSuite. Printing and reparsing a suite is
// lossless, and reformatting a parsed suite reproduces it byte for byte.
func FormatSuite(specs []*Spec) string { return litmus.FormatSuite(specs) }

// ParseSuite reads a whole suite file: litmus tests separated by blank
// lines, each optionally followed by a forbid: outcome line.
func ParseSuite(r io.Reader) ([]*Spec, error) { return litmus.ParseSuite(r) }

// EngineVersion identifies the synthesis engine revision for cache keying:
// the content-addressed suite store (internal/store, the memsynthd daemon,
// and the CLIs' -store flag) includes it in every suite digest, so
// output-affecting engine changes invalidate stored suites automatically.
const EngineVersion = synth.EngineVersion

// RenderTarget selects an output dialect for RenderTest.
type RenderTarget = render.Target

// Rendering targets.
const (
	RenderX86   = render.X86
	RenderPower = render.Power
	RenderARM   = render.ARM
	RenderC11   = render.C11
	RenderGo    = render.Go
)

// ParseRenderTarget parses a target name: x86 | power | arm | c11 | go.
func ParseRenderTarget(s string) (RenderTarget, error) { return render.ParseTarget(s) }

// RenderTest renders a litmus test as an assembly-style listing or C11
// source, with an exists-clause for the witness outcome when given.
func RenderTest(target RenderTarget, t *Test, witness *Execution) (string, error) {
	return render.Render(target, t, witness)
}

// RenderDOT renders an execution as a Graphviz graph (events, po skeleton,
// rf/co/fr, dependencies).
func RenderDOT(x *Execution) string { return render.DOT(x) }

// RenderTargetFor suggests the conventional rendering target for a model
// name.
func RenderTargetFor(model string) (RenderTarget, bool) { return render.TargetFor(model) }

// RandomOptions shapes the random litmus-test baseline generator.
type RandomOptions = randgen.Options

// RandomGenerator draws random well-formed tests over a model's vocabulary
// — the "random test generator" baseline of the paper's §2.1 taxonomy.
type RandomGenerator = randgen.Generator

// NewRandomGenerator returns a seeded random test generator for m.
func NewRandomGenerator(m Model, opts RandomOptions, seed int64) *RandomGenerator {
	return randgen.New(m, opts, seed)
}

// ForbiddenWitness returns an execution of t that m forbids, or nil when
// every outcome is allowed.
func ForbiddenWitness(m Model, t *Test) *Execution { return randgen.ForbiddenWitness(m, t) }

// MatchesOutcome reports whether execution x realizes all conditions of a
// parsed outcome specification.
func MatchesOutcome(x *Execution, conds []OutcomeCond) bool {
	t := x.Test
	for _, c := range conds {
		if c.Final {
			if x.FinalValue(c.Addr) != c.Value {
				return false
			}
			continue
		}
		matched := false
		for _, e := range t.Events {
			if e.Thread == c.Thread && e.Index == c.Index {
				if e.Kind != KRead || x.ReadValue(e.ID) != c.Value {
					return false
				}
				matched = true
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

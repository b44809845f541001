package cat_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// minimal is a smallest-possible valid definition to build variants from.
const minimal = `model m
acyclic po | rf | co | fr as total
ops R W
`

func TestCompileMinimal(t *testing.T) {
	m, err := cat.Compile(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "m" {
		t.Errorf("name = %q", m.Name())
	}
	if m.Source() != "cat" {
		t.Errorf("source = %q", m.Source())
	}
	if len(m.SourceDigest()) != 64 {
		t.Errorf("digest = %q", m.SourceDigest())
	}
	ax := m.Axioms()
	if len(ax) != 1 || ax[0].Name != "total" {
		t.Fatalf("axioms = %+v", ax)
	}
	ops := m.Vocab().Ops
	if len(ops) != 2 || ops[0].Kind() != litmus.KRead || ops[1].Kind() != litmus.KWrite {
		t.Fatalf("ops = %v", ops)
	}
}

// TestCompileErrors exercises every diagnostic path: each bad definition
// must fail with a positioned *cat.Error mentioning the expected text.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		pos  string // "line:col" expected in the message
		want string // substring of the message
	}{
		{"missing model", "acyclic po as a\nops R\n", "", "missing `model <name>`"},
		{"duplicate model", "model a\nmodel b\nacyclic po as x\nops R\n", "2:1", "duplicate model"},
		{"illegal char", "model m\nlet x = po $ rf\n", "2:12", "illegal character"},
		{"unterminated comment", "model m\n(* oops\nops R\n", "2:1", "unterminated block comment"},
		{"bad caret", "model m\nlet x = po^2\n", "2:11", "expected '^-1'"},
		{"unknown statement", "model m\nfrobnicate po\n", "2:1", "unknown statement"},
		{"missing as", "model m\nacyclic po | rf\nops R\n", "2:16", "after axiom body"},
		{"missing expr", "model m\nlet x =\n", "2:8", "expected an expression"},
		{"unclosed paren", "model m\nlet x = (po | rf\nops R\n", "3:1", "to close '('"},
		{"undefined name", "model m\nacyclic po | nope as a\nops R\n", "2:14", `undefined name "nope"`},
		{"forward ref", "model m\nlet a = b\nlet b = po\nacyclic a as x\nops R\n", "2:9", `undefined name "b"`},
		{"self ref", "model m\nlet a = a | po\nacyclic a as x\nops R\n", "2:9", `undefined name "a"`},
		{"shadow builtin", "model m\nlet po = rf\nacyclic po as x\nops R\n", "2:5", "shadows a builtin"},
		{"duplicate let", "model m\nlet a = po\nlet a = rf\nacyclic a as x\nops R\n", "3:5", "duplicate definition"},
		{"duplicate let deep", "model m\nlet a = po\nlet b = rf\nlet b = co\nacyclic a | b as x\nops R\n", "4:5", "duplicate definition"},
		{"no axioms", "model m\nops R\n", "1:7", "declares no axioms"},
		{"duplicate axiom", "model m\nacyclic po as a\nacyclic rf as a\nops R\n", "3:1", "duplicate axiom"},
		{"duplicate axiom deep", "model m\nacyclic po as a\nacyclic rf as b\nacyclic co as b\nops R\n", "4:1", "duplicate axiom"},
		{"union axiom", "model m\nacyclic po as union\nops R\n", "2:1", "reserved"},
		{"set axiom", "model m\nacyclic R | W as a\nops R\n", "2:11", "needs a relation"},
		{"join sets", "model m\nacyclic R ; W as a\nops R\n", "2:11", "joins relations"},
		{"mixed union", "model m\nacyclic po | R as a\nops R\n", "2:12", "operands of one type"},
		{"product of rels", "model m\nacyclic po * rf as a\nops R\n", "2:12", "product of two sets"},
		{"closure of set", "model m\nacyclic R+ as a\nops R\n", "2:9", "applies to relations"},
		{"lift rel", "model m\nacyclic [po] as a\nops R\n", "2:10", "lifts a set"},
		{"bad dotted base", "model m\nacyclic po.loc as a\nops R\n", "2:9", "dotted sets start with"},
		{"bad order suffix", "model m\nacyclic [R.weird] as a\nops R\n", "2:10", "unknown memory order"},
		{"bad fence suffix", "model m\nacyclic [F.hfence] as a\nops R\n", "2:10", "unknown fence kind"},
		{"no ops", "model m\nacyclic po as a\n", "1:7", "declares no ops"},
		{"empty ops", "model m\nacyclic po as a\nops\n", "3:1", "lists no instructions"},
		{"bad op", "model m\nacyclic po as a\nops X\n", "3:5", "unknown instruction"},
		{"bare fence op", "model m\nacyclic po as a\nops F\n", "3:5", "fence op needs a kind"},
		{"bad op scope", "model m\nacyclic po as a\nops R@galaxy\n", "3:6", "unknown scope"},
		{"rmw not read+write", "model m\nacyclic po as a\nops R W\nrmw W R\n", "4:5", "read then a write"},
		{"bad dep", "model m\nacyclic po as a\nops R\ndeps temporal\n", "4:6", "unknown dependency type"},
		{"dup dep", "model m\nacyclic po as a\nops R\ndeps addr addr\n", "4:11", "duplicate dependency"},
		{"bad scope", "model m\nacyclic po as a\nops R\nscopes solar\n", "4:8", "unknown scope"},
		{"bad relax tag", "model m\nacyclic po as a\nops R\nrelax XYZ\n", "4:7", "unknown relaxation tag"},
		{"DMO no ladder", "model m\nacyclic po as a\nops R\nrelax DMO\n", "4:7", "relax DMO needs"},
		{"DF no ladder", "model m\nacyclic po as a\nops R\nrelax DF\n", "4:7", "relax DF needs"},
		{"DS no ladder", "model m\nacyclic po as a\nops R\nrelax DS\n", "4:7", "relax DS needs"},
		{"demote base mismatch", "model m\nacyclic po as a\nops R\ndemote R.acq -> W.rlx\n", "4:17", "keep the source base"},
		{"demote bare source", "model m\nacyclic po as a\nops R\ndemote R -> R.rlx\n", "4:8", "needs a memory order suffix"},
		{"demote fence to order", "model m\nacyclic po as a\nops R\ndemote F.sc -> R.rlx\n", "4:16", "fence demotion target"},
		{"demote scope to op", "model m\nacyclic po as a\nops R\ndemote @sys -> R.rlx\n", "4:16", "scope demotion target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cat.Compile(tc.src)
			if err == nil {
				t.Fatalf("compiled without error")
			}
			var ce *cat.Error
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *cat.Error: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if tc.pos != "" {
				if got := fmt.Sprintf("%d:%d", ce.Pos.Line, ce.Pos.Col); got != tc.pos {
					t.Errorf("error position %s, want %s (%v)", got, tc.pos, err)
				}
			}
		})
	}
}

// TestDigestNormalization: formatting and comments are digest-neutral;
// any token change is not.
func TestDigestNormalization(t *testing.T) {
	base, err := cat.Compile(minimal)
	if err != nil {
		t.Fatal(err)
	}
	reformatted, err := cat.Compile(
		"(* a comment *)\nmodel m\n\n\nacyclic  po   |  rf | co | fr as total // trailing\nops   R   W\n")
	if err != nil {
		t.Fatal(err)
	}
	if base.SourceDigest() != reformatted.SourceDigest() {
		t.Errorf("reformatting changed the digest:\n%q\nvs\n%q", base.Normalized(), reformatted.Normalized())
	}
	changed, err := cat.Compile(strings.Replace(minimal, "po | rf", "po | rfe", 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.SourceDigest() == changed.SourceDigest() {
		t.Error("token change kept the digest")
	}
}

// TestParenNormalizationDistinct: parentheses are tokens, so regrouping
// (which can change meaning) changes the digest even when the token
// multiset is close.
func TestParenNormalizationDistinct(t *testing.T) {
	a, err := cat.Compile("model m\nacyclic (po ; rf) ; co as x\nops R\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.Compile("model m\nacyclic po ; (rf ; co) as x\nops R\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.SourceDigest() == b.SourceDigest() {
		t.Error("regrouping kept the digest")
	}
}

// TestRelaxationLadders compiles a definition using every declaration form
// and probes the resulting RelaxSpec.
func TestRelaxationLadders(t *testing.T) {
	src := `model k
acyclic po | rf | co | fr as total
ops R W R.acq W.rel F.sc F.acqrel
rmw R W
deps addr data
relax RD DRMW DMO DF
demote R.acq -> R.rlx
demote M.sc -> M.acqrel
demote F.sc -> F.acqrel F.acq
`
	m, err := cat.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	spec := m.Relax()
	if !spec.RD || !spec.DRMW {
		t.Errorf("RD=%t DRMW=%t, want both true", spec.RD, spec.DRMW)
	}
	probe := func(kind litmus.Kind, order litmus.Order) []litmus.Order {
		return spec.DemoteOrder(litmus.Event{Kind: kind, Order: order})
	}
	if got := probe(litmus.KRead, litmus.OAcquire); len(got) != 1 || got[0] != litmus.OPlain {
		t.Errorf("R.acq demotes to %v, want [rlx]", got)
	}
	// M.sc expands to both reads and writes.
	if got := probe(litmus.KRead, litmus.OSC); len(got) != 1 || got[0] != litmus.OAcqRel {
		t.Errorf("R.sc demotes to %v, want [acqrel]", got)
	}
	if got := probe(litmus.KWrite, litmus.OSC); len(got) != 1 || got[0] != litmus.OAcqRel {
		t.Errorf("W.sc demotes to %v, want [acqrel]", got)
	}
	if got := probe(litmus.KWrite, litmus.OAcquire); len(got) != 0 {
		t.Errorf("W.acq demotes to %v, want none", got)
	}
	fences := spec.DemoteFence(litmus.Event{Kind: litmus.KFence, Fence: litmus.FSC})
	if len(fences) != 2 || fences[0] != litmus.FAcqRel || fences[1] != litmus.FAcq {
		t.Errorf("F.sc demotes to %v, want [acqrel acq]", fences)
	}
	if spec.DemoteScope != nil {
		t.Error("DemoteScope set without a scope ladder")
	}
	if got := m.Vocab().DepTypes; len(got) != 2 || got[0] != litmus.DepAddr || got[1] != litmus.DepData {
		t.Errorf("deps = %v", got)
	}
}

// TestScopedDeclarations covers scoped vocabularies and scope demotion.
func TestScopedDeclarations(t *testing.T) {
	src := `model scoped
acyclic (po | rf | co | fr) & scope-compat as total
ops R@wg W@wg R@sys W@sys
scopes wg sys
sc-order
relax DS
demote @sys -> @wg
`
	m, err := cat.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Vocab().UsesSC {
		t.Error("sc-order not reflected in Vocab().UsesSC")
	}
	if got := m.Vocab().Scopes; len(got) != 2 || got[0] != litmus.ScopeWG || got[1] != litmus.ScopeSys {
		t.Errorf("scopes = %v", got)
	}
	if got := m.Relax().DemoteScope(litmus.Event{Scope: litmus.ScopeSys}); len(got) != 1 || got[0] != litmus.ScopeWG {
		t.Errorf("@sys demotes to %v, want [wg]", got)
	}
	if got := m.Relax().DemoteScope(litmus.Event{Scope: litmus.ScopeWG}); len(got) != 0 {
		t.Errorf("@wg demotes to %v, want none", got)
	}
	if got := m.Vocab().Ops[0].Scope(); got != litmus.ScopeWG {
		t.Errorf("first op scope = %v", got)
	}
}

// TestStarDisambiguation: '*' is the set product when a primary follows,
// the reflexive-transitive closure otherwise.
func TestStarDisambiguation(t *testing.T) {
	for _, src := range []string{
		"model m\nacyclic po ; (W * R) as a\nops R\n",     // product
		"model m\nacyclic rf ; po* as a\nops R\n",         // postfix, end of expr
		"model m\nacyclic (rf ; po*) | co as a\nops R\n",  // postfix before ')'
		"model m\nacyclic rf* ; po as a\nops R\n",         // postfix before ';'
		"model m\nirreflexive (rf ; co)+ as a\nops R\n",   // closure of parens
		"model m\nempty (rf^-1 ; co?) & po as a\nops R\n", // inverse and opt
	} {
		if _, err := cat.Compile(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	// W * R* would be a product of a set with a relation: rejected.
	if _, err := cat.Compile("model m\nacyclic W * R * po as a\nops R\n"); err == nil {
		t.Error("set * set * rel compiled")
	}
}

// TestEvalName checks the exported evaluation of predefined names against
// the view relations they are defined by, and that other names are
// errors.
func TestEvalName(t *testing.T) {
	mf := litmus.F(litmus.FMFence)
	lt := litmus.New("SB+mfences", [][]litmus.Op{
		{litmus.W(0), mf, litmus.R(1)},
		{litmus.W(1), mf, litmus.R(0)},
	})
	v := exec.NewStaticCtx(lt, exec.NoPerturb).NewView()
	for name, want := range map[string]relation.Rel{
		"po":     v.PO(),
		"po-loc": v.POLoc(),
		"ext":    v.Ext(),
	} {
		rel, _, isSet, err := cat.EvalName(v, name)
		if err != nil || isSet || !rel.Equal(want) {
			t.Errorf("EvalName(%q) = %v (set=%v, err=%v), want %v", name, rel, isSet, err, want)
		}
	}
	for name, want := range map[string]relation.Set{
		"R":        v.Reads(),
		"F.mfence": v.FencesOfKind(litmus.FMFence),
	} {
		_, set, isSet, err := cat.EvalName(v, name)
		if err != nil || !isSet || set != want {
			t.Errorf("EvalName(%q) = %v (set=%v, err=%v), want %v", name, set, isSet, err, want)
		}
	}
	for _, name := range []string{"nosuch", "R.bogus", "X.acq"} {
		if _, _, _, err := cat.EvalName(v, name); err == nil {
			t.Errorf("EvalName(%q) succeeded", name)
		}
	}
}

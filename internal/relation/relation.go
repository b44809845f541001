// Package relation implements finite binary relations over a small universe
// of atoms, represented as bit matrices. It provides the relational-algebra
// operators used by axiomatic memory models (union, intersection, difference,
// join, transpose, transitive closure, domain/range restriction) together
// with the acyclicity and irreflexivity checks that memory-model axioms are
// built from.
//
// The universe size is bounded by 64 atoms, which comfortably covers litmus
// tests of the sizes this project synthesizes (the paper's experiments stop
// at 8 instructions). All operations are allocation-light: a Rel is a slice
// of uint64 rows, and most operators run in O(n) or O(n^2) word operations.
package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxUniverse is the largest universe size a Rel supports.
const MaxUniverse = 64

// Rel is a binary relation over the universe {0, ..., N-1}.
// rows[i] has bit j set iff (i, j) is in the relation.
type Rel struct {
	n    int
	rows []uint64
}

// New returns the empty relation over a universe of n atoms.
// It panics if n is negative or exceeds MaxUniverse.
func New(n int) Rel {
	if n < 0 || n > MaxUniverse {
		panic(fmt.Sprintf("relation: universe size %d out of range [0,%d]", n, MaxUniverse))
	}
	return Rel{n: n, rows: make([]uint64, n)}
}

// FromPairs returns the relation over n atoms containing exactly the given
// (src, dst) pairs.
func FromPairs(n int, pairs ...[2]int) Rel {
	r := New(n)
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// Identity returns the identity relation {(i,i)} over n atoms.
func Identity(n int) Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		r.rows[i] = 1 << uint(i)
	}
	return r
}

// Full returns the complete relation over n atoms.
func Full(n int) Rel {
	r := New(n)
	var all uint64
	if n == 64 {
		all = ^uint64(0)
	} else {
		all = (uint64(1) << uint(n)) - 1
	}
	for i := range r.rows {
		r.rows[i] = all
	}
	return r
}

// N returns the universe size.
func (r Rel) N() int { return r.n }

// Add inserts the pair (i, j).
func (r Rel) Add(i, j int) {
	r.check(i, j)
	r.rows[i] |= 1 << uint(j)
}

// Remove deletes the pair (i, j) if present.
func (r Rel) Remove(i, j int) {
	r.check(i, j)
	r.rows[i] &^= 1 << uint(j)
}

// Has reports whether (i, j) is in the relation.
func (r Rel) Has(i, j int) bool {
	r.check(i, j)
	return r.rows[i]&(1<<uint(j)) != 0
}

func (r Rel) check(i, j int) {
	if i < 0 || i >= r.n || j < 0 || j >= r.n {
		panic(fmt.Sprintf("relation: pair (%d,%d) out of universe [0,%d)", i, j, r.n))
	}
}

// Clone returns a deep copy of r.
func (r Rel) Clone() Rel {
	c := New(r.n)
	copy(c.rows, r.rows)
	return c
}

// IsEmpty reports whether the relation contains no pairs.
func (r Rel) IsEmpty() bool {
	for _, row := range r.rows {
		if row != 0 {
			return false
		}
	}
	return true
}

// Size returns the number of pairs in the relation.
func (r Rel) Size() int {
	total := 0
	for _, row := range r.rows {
		total += bits.OnesCount64(row)
	}
	return total
}

// Equal reports whether r and s contain exactly the same pairs over the same
// universe.
func (r Rel) Equal(s Rel) bool {
	if r.n != s.n {
		return false
	}
	for i, row := range r.rows {
		if row != s.rows[i] {
			return false
		}
	}
	return true
}

// Pairs returns all pairs in the relation in row-major order.
func (r Rel) Pairs() [][2]int {
	var out [][2]int
	for i, row := range r.rows {
		for row != 0 {
			j := bits.TrailingZeros64(row)
			out = append(out, [2]int{i, j})
			row &= row - 1
		}
	}
	return out
}

func (r Rel) mustMatch(s Rel, op string) {
	if r.n != s.n {
		panic(fmt.Sprintf("relation: %s over mismatched universes %d and %d", op, r.n, s.n))
	}
}

// Union returns r ∪ s.
func (r Rel) Union(s Rel) Rel {
	r.mustMatch(s, "union")
	out := New(r.n)
	for i := range r.rows {
		out.rows[i] = r.rows[i] | s.rows[i]
	}
	return out
}

// Intersect returns r ∩ s.
func (r Rel) Intersect(s Rel) Rel {
	r.mustMatch(s, "intersect")
	out := New(r.n)
	for i := range r.rows {
		out.rows[i] = r.rows[i] & s.rows[i]
	}
	return out
}

// Minus returns r \ s.
func (r Rel) Minus(s Rel) Rel {
	r.mustMatch(s, "minus")
	out := New(r.n)
	for i := range r.rows {
		out.rows[i] = r.rows[i] &^ s.rows[i]
	}
	return out
}

// Join returns the relational join r;s = {(i,k) | ∃j: (i,j)∈r ∧ (j,k)∈s}.
func (r Rel) Join(s Rel) Rel {
	r.mustMatch(s, "join")
	out := New(r.n)
	for i, row := range r.rows {
		var acc uint64
		for row != 0 {
			j := bits.TrailingZeros64(row)
			acc |= s.rows[j]
			row &= row - 1
		}
		out.rows[i] = acc
	}
	return out
}

// In-place variants. The allocating operators above return a fresh Rel
// per call, which is the right shape for model definitions but allocates
// in the synthesis engine's explore hot path, where the same handful of
// derived relations is recomputed for every (execution, sc-order,
// relaxation) triple. These variants write into an existing Rel instead,
// letting callers reuse pooled scratch buffers.

// Resize empties r and sets its universe to n atoms, reusing r's row
// storage when it has room for n rows. It is how a pooled relation follows
// its owner from one program to the next without reallocating. It panics
// if n is negative or exceeds MaxUniverse.
func (r *Rel) Resize(n int) {
	if n < 0 || n > MaxUniverse {
		panic(fmt.Sprintf("relation: universe size %d out of range [0,%d]", n, MaxUniverse))
	}
	if cap(r.rows) < n {
		r.rows = make([]uint64, n)
	} else {
		r.rows = r.rows[:n]
		clear(r.rows)
	}
	r.n = n
}

// Clear removes every pair, keeping the universe.
func (r Rel) Clear() {
	for i := range r.rows {
		r.rows[i] = 0
	}
}

// CopyFrom overwrites r with the pairs of s.
func (r Rel) CopyFrom(s Rel) {
	r.mustMatch(s, "copy")
	copy(r.rows, s.rows)
}

// UnionWith adds every pair of s to r in place (r ∪= s).
func (r Rel) UnionWith(s Rel) {
	r.mustMatch(s, "union")
	for i := range r.rows {
		r.rows[i] |= s.rows[i]
	}
}

// IntersectWith removes from r every pair not in s (r ∩= s).
func (r Rel) IntersectWith(s Rel) {
	r.mustMatch(s, "intersect")
	for i := range r.rows {
		r.rows[i] &= s.rows[i]
	}
}

// MinusWith removes every pair of s from r (r \= s).
func (r Rel) MinusWith(s Rel) {
	r.mustMatch(s, "minus")
	for i := range r.rows {
		r.rows[i] &^= s.rows[i]
	}
}

// JoinInto computes r;s into dst. dst may alias r but must not alias s.
func (r Rel) JoinInto(s, dst Rel) {
	r.mustMatch(s, "join")
	r.mustMatch(dst, "join")
	for i, row := range r.rows {
		var acc uint64
		for row != 0 {
			j := bits.TrailingZeros64(row)
			acc |= s.rows[j]
			row &= row - 1
		}
		dst.rows[i] = acc
	}
}

// CloseIn replaces r with its transitive closure in place.
func (r Rel) CloseIn() {
	for k := 0; k < r.n; k++ {
		kbit := uint64(1) << uint(k)
		for i := range r.rows {
			if r.rows[i]&kbit != 0 {
				r.rows[i] |= r.rows[k]
			}
		}
	}
}

// ReflexiveCloseIn replaces r with iden ∪ ^r in place.
func (r Rel) ReflexiveCloseIn() {
	r.CloseIn()
	for i := 0; i < r.n; i++ {
		r.rows[i] |= 1 << uint(i)
	}
}

// RestrictIn removes in place every pair whose source is outside dom or
// whose target is outside rng.
func (r Rel) RestrictIn(dom, rng Set) {
	r.mustMatchSet(dom, "restrict")
	r.mustMatchSet(rng, "restrict")
	for i := range r.rows {
		if !dom.Has(i) {
			r.rows[i] = 0
		} else {
			r.rows[i] &= uint64(rng)
		}
	}
}

// UnionCross adds every pair of dom × rng to r in place (r ∪= dom × rng).
func (r Rel) UnionCross(dom, rng Set) {
	r.mustMatchSet(dom, "cross union")
	r.mustMatchSet(rng, "cross union")
	for m := uint64(dom); m != 0; m &= m - 1 {
		r.rows[bits.TrailingZeros64(m)] |= uint64(rng)
	}
}

// MinusCross removes every pair of dom × rng from r in place
// (r \= dom × rng).
func (r Rel) MinusCross(dom, rng Set) {
	r.mustMatchSet(dom, "cross minus")
	r.mustMatchSet(rng, "cross minus")
	for m := uint64(dom); m != 0; m &= m - 1 {
		r.rows[bits.TrailingZeros64(m)] &^= uint64(rng)
	}
}

// UnionRow adds an edge from i to every atom of s in place.
func (r Rel) UnionRow(i int, s Set) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("relation: atom %d out of universe [0,%d)", i, r.n))
	}
	r.mustMatchSet(s, "row union")
	r.rows[i] |= uint64(s)
}

// Transpose returns the inverse relation ~r.
func (r Rel) Transpose() Rel {
	out := New(r.n)
	for i, row := range r.rows {
		for row != 0 {
			j := bits.TrailingZeros64(row)
			out.rows[j] |= 1 << uint(i)
			row &= row - 1
		}
	}
	return out
}

// Closure returns the transitive closure ^r (one or more steps).
// Warshall over bit rows: if (i,k) then fold in row k.
func (r Rel) Closure() Rel {
	out := r.Clone()
	out.CloseIn()
	return out
}

// ReflexiveClosure returns *r = iden ∪ ^r (zero or more steps).
func (r Rel) ReflexiveClosure() Rel {
	out := r.Closure()
	for i := 0; i < out.n; i++ {
		out.rows[i] |= 1 << uint(i)
	}
	return out
}

// OptStep returns r? = iden ∪ r (zero or one step).
func (r Rel) OptStep() Rel {
	out := r.Clone()
	for i := 0; i < out.n; i++ {
		out.rows[i] |= 1 << uint(i)
	}
	return out
}

// RestrictDomain returns dom <: r — pairs of r whose source is in dom.
func (r Rel) RestrictDomain(dom Set) Rel {
	r.mustMatchSet(dom, "domain restriction")
	out := New(r.n)
	m := uint64(dom)
	for i := range r.rows {
		if m&(1<<uint(i)) != 0 {
			out.rows[i] = r.rows[i]
		}
	}
	return out
}

// RestrictRange returns r :> rng — pairs of r whose target is in rng.
func (r Rel) RestrictRange(rng Set) Rel {
	r.mustMatchSet(rng, "range restriction")
	out := New(r.n)
	for i := range r.rows {
		out.rows[i] = r.rows[i] & uint64(rng)
	}
	return out
}

// Restrict returns dom <: r :> rng.
func (r Rel) Restrict(dom, rng Set) Rel {
	return r.RestrictDomain(dom).RestrictRange(rng)
}

func (r Rel) mustMatchSet(s Set, op string) {
	if r.n < 64 && uint64(s)>>uint(r.n) != 0 {
		panic(fmt.Sprintf("relation: %s with set outside universe of %d", op, r.n))
	}
}

// Irreflexive reports whether no pair (i,i) is in the relation.
func (r Rel) Irreflexive() bool {
	for i, row := range r.rows {
		if row&(1<<uint(i)) != 0 {
			return false
		}
	}
	return true
}

// Acyclic reports whether the relation, viewed as a directed graph, has no
// cycle (equivalently, its transitive closure is irreflexive).
func (r Rel) Acyclic() bool {
	// Iterative DFS with colors; avoids the O(n^3) closure when a cycle
	// exists early. Fixed-size backing arrays keep the check off the heap
	// (it is the single most-called predicate in axiom evaluation).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	var colorArr [MaxUniverse]uint8
	color := colorArr[:r.n]
	type frame struct {
		node int
		rest uint64
	}
	var stackArr [MaxUniverse]frame
	stack := stackArr[:0]
	for start := 0; start < r.n; start++ {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack, frame{start, r.rows[start]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.rest == 0 {
				color[top.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			j := bits.TrailingZeros64(top.rest)
			top.rest &= top.rest - 1
			switch color[j] {
			case gray:
				return false
			case white:
				color[j] = gray
				stack = append(stack, frame{j, r.rows[j]})
			}
		}
	}
	return true
}

// Transitive reports whether r;r ⊆ r.
func (r Rel) Transitive() bool {
	return r.Join(r).Minus(r).IsEmpty()
}

// SubsetOf reports whether every pair of r is in s.
func (r Rel) SubsetOf(s Rel) bool {
	r.mustMatch(s, "subset")
	for i := range r.rows {
		if r.rows[i]&^s.rows[i] != 0 {
			return false
		}
	}
	return true
}

// Domain returns the set of atoms with at least one outgoing edge.
func (r Rel) Domain() Set {
	var s Set
	for i, row := range r.rows {
		if row != 0 {
			s = s.Add(i)
		}
	}
	return s
}

// Range returns the set of atoms with at least one incoming edge.
func (r Rel) Range() Set {
	var acc uint64
	for _, row := range r.rows {
		acc |= row
	}
	return Set(acc)
}

// Image returns the set of atoms reachable in one step from any atom in s.
func (r Rel) Image(s Set) Set {
	var acc uint64
	m := uint64(s)
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if i < r.n {
			acc |= r.rows[i]
		}
	}
	return Set(acc)
}

// Successors returns the set of atoms j with (i, j) in r.
func (r Rel) Successors(i int) Set {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("relation: atom %d out of universe [0,%d)", i, r.n))
	}
	return Set(r.rows[i])
}

// String renders the relation as its sorted pair list, e.g. "{(0,1),(2,0)}".
func (r Rel) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, p := range r.Pairs() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}

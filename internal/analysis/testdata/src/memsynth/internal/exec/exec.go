// Package exec is a miniature stub of memsynth/internal/exec: the pooled
// View/StaticCtx types the poolescape fixtures mishandle. The analyzer
// keys on the import path and type names only.
package exec

// StaticCtx owns the pooled buffers views point into.
type StaticCtx struct{ n int }

// View is pooled per-execution scratch over its embedded context.
type View struct{ *StaticCtx }

// NewStaticCtx mints a context for n events.
func NewStaticCtx(n int) *StaticCtx { return &StaticCtx{n: n} }

// NewView mints a view over c's buffers.
func (c *StaticCtx) NewView() *View { return &View{StaticCtx: c} }

// Rebind re-points c at another program in place.
func (c *StaticCtx) Rebind(n int) { c.n = n }

// Reset re-stamps v for the next execution.
func (v *View) Reset() {}

// Package minimal shadows an owner package: poolescape skips packages on
// the owner allowlist, so storing a view in a struct field, and rebinding
// the context under it, are clean here. Pinned false-positive regression
// cases for the allowlist.
package minimal

import "memsynth/internal/exec"

type worker struct {
	view *exec.View
}

func newWorker(c *exec.StaticCtx) *worker {
	w := &worker{}
	w.view = c.NewView()
	return w
}

// rebind re-points the worker's own view at the next program.
func (w *worker) rebind(n int) {
	w.view.Rebind(n)
}

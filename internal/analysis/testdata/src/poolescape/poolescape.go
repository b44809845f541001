// Package poolescape exercises the pooled-lifetime checker outside the
// owner packages: every way a View or StaticCtx can outlive its Reset
// window, plus the sanctioned synchronous pattern.
package poolescape

import "memsynth/internal/exec"

type holder struct {
	view *exec.View
}

func fieldStore(h *holder, v *exec.View) {
	h.view = v // want `pooled exec.View stored into a struct field outside its owner packages`
}

func containerStore(views map[int]*exec.View, v *exec.View) {
	views[0] = v // want `pooled exec.View stored into a container outside its owner packages`
}

func literalStore(v *exec.View) holder {
	return holder{view: v} // want `pooled exec.View stored into a composite literal outside its owner packages`
}

func returned(c *exec.StaticCtx) *exec.StaticCtx {
	return c // want `pooled exec.StaticCtx returned outside its owner packages`
}

func goArg(v *exec.View) {
	go consume(v) // want `pooled exec.View passed to a goroutine`
}

func captured(v *exec.View) {
	go func() {
		v.Reset() // want `pooled v captured by a goroutine closure`
	}()
}

func sent(ch chan *exec.View, v *exec.View) {
	ch <- v // want `pooled exec.View sent on a channel`
}

// rebind re-points a context it does not own, invalidating the owner's
// views of it: directly, promoted through a view, and as a method value.
func rebind(c *exec.StaticCtx, v *exec.View) func(int) {
	c.Rebind(3)     // want `exec.StaticCtx.Rebind outside its owner packages: a rebind invalidates every view of the context`
	v.Rebind(4)     // want `exec.StaticCtx.Rebind outside its owner packages`
	return c.Rebind // want `exec.StaticCtx.Rebind outside its owner packages`
}

// clean is the sanctioned pattern: mint, reset, pass down synchronously.
func clean(c *exec.StaticCtx) {
	v := c.NewView()
	v.Reset()
	consume(v)
}

func consume(*exec.View) {}

// transfer is a deliberate ownership hand-off, annotated and silenced.
func transfer(h *holder, v *exec.View) {
	//memvet:escapes h owns the view for the remainder of the run
	h.view = v
}

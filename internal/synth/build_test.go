package synth

import (
	"fmt"
	"reflect"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// newFromEvents rebuilds t through litmus.New, the constructor for
// hand-written tests: its events as per-thread op lists in event order,
// one option per dependency, one per RMW pair in the order of its read,
// and its groups.
func newFromEvents(t *litmus.Test) *litmus.Test {
	threads := make([][]litmus.Op, t.NumThreads())
	for _, e := range t.Events {
		var op litmus.Op
		switch e.Kind {
		case litmus.KRead:
			op = litmus.R(e.Addr)
		case litmus.KWrite:
			op = litmus.W(e.Addr)
		default:
			op = litmus.F(e.Fence)
		}
		threads[e.Thread] = append(threads[e.Thread], op.WithOrder(e.Order).WithScope(e.Scope))
	}
	var opts []litmus.Option
	for _, d := range t.Deps {
		from, to := t.Events[d.From], t.Events[d.To]
		opts = append(opts, litmus.WithDep(from.Thread, from.Index, to.Index, d.Type))
	}
	for _, e := range t.Events {
		if w, ok := t.RMWPartner(e.ID); ok && w > e.ID {
			opts = append(opts, litmus.WithRMW(e.Thread, e.Index))
		}
	}
	if t.Groups != nil {
		opts = append(opts, litmus.WithGroups(append([]int(nil), t.Groups...)...))
	}
	return litmus.New("synth", threads, opts...)
}

// TestBuildMatchesNew checks the generator's direct construction against
// litmus.New: every program of every builtin's bound-4 stream, and of the
// full power@5 and tso@6 streams (without the race detector only), must
// pass Validate and equal what litmus.New builds from its own per-thread
// ops, dependencies, RMW pairs and groups — Events, Deps, RMW and Groups,
// in order.
func TestBuildMatchesNew(t *testing.T) {
	type stream struct {
		m     memmodel.Model
		bound int
	}
	var streams []stream
	for _, m := range memmodel.All() {
		streams = append(streams, stream{m, 4})
	}
	if !raceEnabled {
		streams = append(streams, stream{memmodel.Power(), 5}, stream{memmodel.TSO(), 6})
	}
	for _, s := range streams {
		t.Run(fmt.Sprintf("%s@%d", s.m.Name(), s.bound), func(t *testing.T) {
			t.Parallel()
			opts := Options{MaxEvents: s.bound}.withDefaults()
			g := newGenerator(s.m.Vocab(), opts, ShardSpec{Index: 0, Stride: 1})
			programs := 0
			for n := opts.MinEvents; n <= s.bound; n++ {
				g.run(n, func(got *litmus.Test) bool {
					programs++
					if err := got.Validate(); err != nil {
						t.Errorf("%v: %v", got, err)
						return false
					}
					if want := newFromEvents(got); !reflect.DeepEqual(got, want) {
						t.Errorf("direct build differs from litmus.New:\n got %#v\nwant %#v", got, want)
					}
					return !t.Failed()
				})
			}
			if programs == 0 {
				t.Fatal("the stream is empty")
			}
		})
	}
}

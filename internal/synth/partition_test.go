package synth

import (
	"fmt"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// TestShardPartitionMatchesReference checks the shard partition against
// the single-node dedupe it must reproduce. For every size of every
// builtin's bound-4 stream, and of the full power@5 and tso@6 streams
// (without the race detector only), and for strides 2, 3 and 7:
//
//   - any two raw programs with equal canon.ProgramKey land in the same
//     shard, and the shards' raw substreams together hold every program;
//   - the shards' winners (generateAndDedupe) are disjoint, their union
//     is the single-node winners, and each shard lists its winners in
//     single-node order.
func TestShardPartitionMatchesReference(t *testing.T) {
	for _, m := range memmodel.All() {
		t.Run(m.Name()+"@4", func(t *testing.T) {
			t.Parallel()
			checkPartition(t, m, 4)
		})
	}
	for _, tc := range []struct {
		model string
		bound int
	}{{"power", 5}, {"tso", 6}} {
		t.Run(fmt.Sprintf("%s@%d", tc.model, tc.bound), func(t *testing.T) {
			if raceEnabled {
				t.Skip("full bound-5/6 streams are too slow under the race detector")
			}
			t.Parallel()
			m, err := memmodel.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, m, tc.bound)
		})
	}
}

func checkPartition(t *testing.T, m memmodel.Model, bound int) {
	t.Helper()
	opts := Options{MaxEvents: bound}.withDefaults()
	for n := opts.MinEvents; n <= bound; n++ {
		single := newEngine(m, opts).generateAndDedupe(n, ShardSpec{Index: 0, Stride: 1})
		pos := make(map[string]int, len(single))
		for i, w := range single {
			pos[programID(w)] = i
		}
		raw := 0
		newGenerator(m.Vocab(), opts, ShardSpec{Index: 0, Stride: 1}).run(n, func(*litmus.Test) bool { raw++; return true })

		for _, stride := range []int{2, 3, 7} {
			class := make(map[string]int) // program key → its shard
			owner := make([]int, len(single))
			for i := range owner {
				owner[i] = -1
			}
			shardRaw := 0
			for i := 0; i < stride; i++ {
				spec := ShardSpec{Index: i, Stride: stride}
				newGenerator(m.Vocab(), opts, spec).run(n, func(p *litmus.Test) bool {
					shardRaw++
					pk := canon.ProgramKey(p)
					if prev, ok := class[pk]; ok && prev != i {
						t.Errorf("size %d stride %d: class %s in shards %d and %d", n, stride, pk, prev, i)
						return false
					}
					class[pk] = i
					return true
				})
				last := -1
				for _, w := range newEngine(m, opts).generateAndDedupe(n, spec) {
					j, ok := pos[programID(w)]
					switch {
					case !ok:
						t.Fatalf("size %d stride %d shard %d: winner %v is no single-node winner", n, stride, i, w)
					case owner[j] >= 0:
						t.Fatalf("size %d stride %d: winner %v in shards %d and %d", n, stride, w, owner[j], i)
					case j < last:
						t.Fatalf("size %d stride %d shard %d: winner %v out of single-node order", n, stride, i, w)
					}
					owner[j], last = i, j
				}
			}
			if shardRaw != raw {
				t.Errorf("size %d stride %d: shards generate %d programs, the full stream %d", n, stride, shardRaw, raw)
			}
			for j, o := range owner {
				if o < 0 {
					t.Fatalf("size %d stride %d: no shard keeps single-node winner %v", n, stride, single[j])
				}
			}
		}
	}
}

// programID identifies a program exactly (events, deps, RMW pairs and
// groups), far more cheaply than its text.
func programID(t *litmus.Test) string {
	b := make([]byte, 0, 6*len(t.Events)+3*len(t.Deps)+2*len(t.RMW)+len(t.Groups)+3)
	for _, e := range t.Events {
		b = append(b, byte(e.Thread), byte(e.Kind), byte(e.Order), byte(e.Fence), byte(e.Scope), byte(e.Addr+1))
	}
	b = append(b, 0xff)
	for _, d := range t.Deps {
		b = append(b, byte(d.From), byte(d.To), byte(d.Type))
	}
	b = append(b, 0xff)
	for _, p := range t.RMW {
		b = append(b, byte(p[0]), byte(p[1]))
	}
	b = append(b, 0xff)
	for _, g := range t.Groups {
		b = append(b, byte(g))
	}
	return string(b)
}

// TestShardPartitionCounts pins the partition itself: the programs each
// power@5 shard of stride 2 generates and keeps. Changing the class hash
// or an op enum it reads moves programs between shards, and this test
// fails; such a change needs a new PartitionScheme, so that nodes of the
// old and new partition never share a request.
func TestShardPartitionCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the full power@5 stream is too slow under the race detector")
	}
	want := []struct{ raw, programs int }{{144445, 138935}, {145102, 139821}}
	opts := Options{MaxEvents: 5}.withDefaults()
	for i, w := range want {
		e := newEngine(memmodel.Power(), opts)
		for n := opts.MinEvents; n <= opts.MaxEvents; n++ {
			e.generateAndDedupe(n, ShardSpec{Index: i, Stride: len(want)})
		}
		if raw, programs := int(e.programsRaw.Load()), int(e.programs.Load()); raw != w.raw || programs != w.programs {
			t.Errorf("power@5 shard %d/%d: %d raw programs and %d kept, want %d and %d",
				i, len(want), raw, programs, w.raw, w.programs)
		}
	}
}

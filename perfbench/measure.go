package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative number of heap bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cost is what one measured stretch of work took: wall time, process CPU
// time and bytes allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// meter measures the process between start and stop.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startMeter() meter {
	return meter{alloc: totalAlloc(), cpu0: cpuTime(), t0: time.Now()}
}

func (m meter) stop() cost {
	wall := time.Since(m.t0)
	return cost{wall: wall, cpu: cpuTime() - m.cpu0, alloc: totalAlloc() - m.alloc}
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// settle collects all garbage and returns freed memory to the OS, untimed,
// so that the measured work after it starts from the same heap in every
// run instead of inheriting the previous work's GC goal and pending
// scavenging (a cold tso7-a1 operation allocates 1.4 GB).
func settle() { debug.FreeOSMemory() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func mb(bytes uint64) float64        { return float64(bytes) / 1e6 }

// setupBatch is how many fixtures a run builds before each operation.
const setupBatch = 5

// setups times the builds of a workload's fixture; setup_s is the median
// of all of them. A run takes a batch before its first operation, keeping
// the last fixture, and another before each later operation, tearing it
// down, so that the samples span the whole run: a batch takes milliseconds,
// and 25 builds taken in one go at the start moved a set's median by a
// fifth with the host's speed at that instant, against under a tenth for
// the operations.
type setups[T any] struct {
	build    func() (T, error)
	teardown func(T)
	times    []float64
}

// sample builds n fixtures, timing each, tears down all but the last and
// returns it.
func (s *setups[T]) sample(n int) (T, error) {
	var fx T
	for i := 0; i < n; i++ {
		if i > 0 {
			s.teardown(fx)
		}
		t0 := time.Now()
		var err error
		fx, err = s.build()
		if err != nil {
			return fx, err
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return fx, nil
}

// batch samples setupBatch fixtures and tears all of them down.
func (s *setups[T]) batch() error {
	fx, err := s.sample(setupBatch)
	if err != nil {
		return err
	}
	s.teardown(fx)
	return nil
}

func (s *setups[T]) seconds() float64 { return median(s.times) }

// latencies collects per-operation times in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, millis(d)) }

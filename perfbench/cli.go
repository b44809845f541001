package main

import (
	"context"
	"fmt"
	"time"

	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// The CLI workload (tso7-a1) runs the memsynth CLI's path in process. A
// cold operation is SynthesizeContext plus formatting the union and every
// per-axiom suite.

// cliSetups resolves the model and warms the engine up with a bound-4 run
// of the same request.
func cliSetups(spec engineSpec) *setups[memmodel.Model] {
	return &setups[memmodel.Model]{
		build: func() (memmodel.Model, error) {
			m, err := memmodel.ByName(spec.model)
			if err != nil {
				return nil, err
			}
			warm := spec.opts
			warm.MaxEvents = 4
			res, err := synth.SynthesizeContext(context.Background(), m, warm)
			if err != nil {
				return nil, err
			}
			suiteTexts(res)
			return m, nil
		},
		teardown: func(memmodel.Model) {},
	}
}

// minColdOps is the fewest cold operations a run makes, even past its
// budget: a cluster-power5 operation takes 8–12 s, and in a run shorter
// than two of them whether a second one fit would otherwise decide between
// one and two samples from run to run.
const minColdOps = 2

// coldPhase runs op back to back until starting another would end past
// budget (it always runs minColdOps times) and returns the costs of the
// ones that succeeded. Only op is measured: prepare (when non-nil) runs
// before every op but the first, settle before every op, and the check op
// returns runs after it.
func coldPhase(res *result, budget time.Duration, prepare func() error, op func() (check func() error)) []cost {
	var costs []cost
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && prepare != nil {
			if err := prepare(); err != nil {
				res.count(err)
				return costs
			}
		}
		settle()
		m := startMeter()
		check := op()
		c := m.stop()
		err := check()
		res.count(err)
		if err == nil {
			costs = append(costs, c)
		}
		if i+1 >= minColdOps && time.Since(start)+c.wall > budget {
			return costs
		}
	}
}

// setColdMetrics reports the per-suite metrics of cold engine operations.
func setColdMetrics(res *result, costs []cost) {
	var wall, cpu, alloc latencies
	for _, c := range costs {
		wall.add(c.wall)
		cpu.add(c.cpu)
		alloc = append(alloc, mb(c.alloc))
	}
	res.set("suite_s", median(wall)/1e3, "s")
	res.set("cpu_s", median(cpu)/1e3, "s")
	res.set("alloc_mb", median(alloc), "MB")
	res.set("cold_p50_ms", median(wall), "ms")
	res.set("cold_p90_ms", quantile(wall, 0.9), "ms")
	fmt.Printf("%d cold operations\n", len(costs))
}

func checkText(pin requestPin, name, text string, tests int) error {
	got := suitePin{Tests: tests, SHA256: sha(text)}
	if want := pin.Suites[name]; got != want {
		return fmt.Errorf("digest %.12s: suite %s is %+v, pinned %+v", pin.Digest, name, got, want)
	}
	return nil
}

func runCLI(e *env, spec engineSpec) (*result, error) {
	pin, ok := e.pins.Engine[spec.pin]
	if !ok {
		return nil, fmt.Errorf("no pin for %s", spec.pin)
	}
	su := cliSetups(spec)
	model, err := su.sample(setupBatch)
	if err != nil {
		return nil, err
	}
	res := newResult()
	costs := coldPhase(res, e.seconds, su.batch, func() func() error {
		r, err := synth.SynthesizeContext(context.Background(), model, spec.opts)
		if err != nil {
			return func() error { return err }
		}
		texts := suiteTexts(r)
		return func() error { return checkEngineResult(spec, pin, r, texts) }
	})
	setColdMetrics(res, costs)
	res.set("setup_s", su.seconds(), "s")
	return res, nil
}

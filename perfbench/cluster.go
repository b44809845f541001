package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"memsynth/internal/cluster"
	"memsynth/internal/server"
	"memsynth/internal/store"
)

// The cluster-power5 workload: an in-process three-node cluster, a
// coordinator memsynthd plus two cluster.NewWorker loops (one engine
// worker each), all over httptest with the daemon's default timings. A
// cold operation is one POST /v1/synthesize for power at bound 5, which
// the coordinator splits into one shard per worker; the suite is deleted
// before the next cold operation.

const clusterWorkers = 2

type clusterFixture struct {
	dir    string
	coord  *cluster.Coordinator
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

func (f *clusterFixture) close() {
	f.stop()
	f.wg.Wait()
	f.client.CloseIdleConnections()
	f.ts.Close()
	f.srv.Close()
	f.coord.Close()
	os.RemoveAll(f.dir)
}

// registrations passes every request to the daemon's handler and closes
// all once want worker registrations have been answered, so set-up ends
// when the coordinator has registered the workers, not when a poll notices.
type registrations struct {
	next http.Handler
	left atomic.Int32
	all  chan struct{}
}

func newRegistrations(next http.Handler, want int) *registrations {
	h := &registrations{next: next, all: make(chan struct{})}
	h.left.Store(int32(want))
	return h
}

func (h *registrations) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.next.ServeHTTP(w, r)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/workers" && h.left.Add(-1) == 0 {
		close(h.all)
	}
}

// clusterSetups builds the coordinator and its store, starts the workers
// on workerClient (nil for the default), and waits until both registered.
func clusterSetups(e *env, workerClient func() *http.Client) *setups[*clusterFixture] {
	return &setups[*clusterFixture]{build: func() (*clusterFixture, error) {
		dir, err := os.MkdirTemp(e.scratch, "cluster-")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, store.DefaultCacheEntries)
		if err != nil {
			return nil, err
		}
		coord := cluster.New(cluster.Config{Store: st})
		srv := server.New(server.Config{Store: st, Cluster: coord})
		ctx, stop := context.WithCancel(context.Background())
		reg := newRegistrations(srv.Handler(), clusterWorkers)
		f := &clusterFixture{dir: dir, coord: coord, srv: srv, ts: httptest.NewServer(reg), client: newClient(), stop: stop}
		for i := 0; i < clusterWorkers; i++ {
			cfg := cluster.WorkerConfig{CoordinatorURL: f.ts.URL, Name: fmt.Sprintf("w%d", i+1), EngineWorkers: 1}
			if workerClient != nil {
				cfg.Client = workerClient()
			}
			w := cluster.NewWorker(cfg)
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				w.Run(ctx) //nolint:errcheck // returns nil after a drain
			}()
		}
		select {
		case <-reg.all:
		case <-time.After(10 * time.Second):
		}
		if n := coord.LiveWorkers(); n != clusterWorkers {
			f.close()
			return nil, fmt.Errorf("cluster: %d of %d workers registered", n, clusterWorkers)
		}
		return f, nil
	}, teardown: func(f *clusterFixture) { f.close() }}
}

// fetchSuites checks every stored suite text of a cold result against the
// single-node pin.
func fetchSuites(c *http.Client, base string, pin requestPin) error {
	for name, want := range pin.Suites {
		resp, err := c.Get(base + "/v1/suites/" + pin.Digest + "?format=litmus&axiom=" + url.QueryEscape(name))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("suite %s: status %d", name, resp.StatusCode)
		}
		if err := checkText(pin, name, string(data), want.Tests); err != nil {
			return err
		}
	}
	return nil
}

// clusterCold is one cold distributed synthesis, returning the response's
// stats for the check that runs after timing.
func clusterCold(f *clusterFixture, pin requestPin) (func() error, *server.SynthesizeResponse) {
	resp, data, err := synthesize(f.client, f.ts.URL, request(power5))
	if err != nil {
		return func() error { return err }, nil
	}
	var sr server.SynthesizeResponse
	return func() error {
		if err := checkResponse(pin, resp, data); err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return err
		}
		if sr.Cached {
			return fmt.Errorf("cold power@5 request was served from the cache")
		}
		if err := checkPaper(power5, sr.Suites); err != nil {
			return err
		}
		return fetchSuites(f.client, f.ts.URL, pin)
	}, &sr
}

func runCluster(e *env) (*result, error) {
	pin, ok := e.pins.Engine[power5.pin]
	if !ok {
		return nil, fmt.Errorf("no pin for %s", power5.pin)
	}
	su := clusterSetups(e, nil)
	f, err := su.sample(setupBatch)
	if err != nil {
		return nil, err
	}
	defer f.close()
	res := newResult()

	// Every cold operation but the first starts, untimed, with a batch of
	// set-ups and by deleting the stored suite.
	prepare := func() error {
		if err := su.batch(); err != nil {
			return err
		}
		return deleteSuite(f.client, f.ts.URL, pin.Digest)
	}
	costs := coldPhase(res, e.seconds, prepare, func() func() error {
		check, _ := clusterCold(f, pin)
		return check
	})
	setColdMetrics(res, costs)
	res.set("setup_s", su.seconds(), "s")
	return res, nil
}

// Command memsynthd serves litmus-test suite synthesis over HTTP, backed
// by a content-addressed on-disk suite store so each (model, bounds,
// engine version) request is synthesized at most once — across clients,
// across concurrent identical requests (single-flight), and across daemon
// restarts. The memsynth CLI's -store flag shares the same store layout,
// so CLI runs and daemon requests populate one cache.
//
// Usage:
//
//	memsynthd -addr :8080 -data-dir /var/lib/memsynth -max-jobs 2 -cache-entries 64
//
// Endpoints:
//
//	POST   /v1/synthesize              {"model":"tso","max_events":4}
//	GET    /v1/jobs/{id}[?stream=1]    async job status / NDJSON progress
//	GET    /v1/suites                  list stored suites
//	GET    /v1/suites/{digest}         manifest (or ?format=litmus&axiom=...)
//	GET    /v1/suites/{digest}/bundle  full store entry (peer cache tier)
//	DELETE /v1/suites/{digest}         evict
//	GET    /v1/suites/{digest}/detect  x86-TSO fault-detection matrix
//	POST   /v1/suites/{digest}/run     stress-execute the suite natively on
//	                                   this host (async job; 202 + job ID)
//	GET    /v1/suites/{digest}/render  per-target listings (?target=go,...)
//	GET    /v1/models                  visible models (built-in + registered)
//	POST   /v1/models                  register a cat model definition
//	POST   /v1/models/lint             dry-run lint of a definition
//	GET    /healthz, /metrics          probes
//
// -models preloads every *.cat definition in a directory at startup, as if
// each had been POSTed to /v1/models. -pprof serves net/http/pprof on a
// separate private address (off by default).
//
// Cluster mode turns a fleet of memsynthd processes into one horizontally
// scaled, cache-sharing service:
//
//	memsynthd -coordinator                      # this node partitions cold
//	                                            # requests into shard jobs and
//	                                            # serves /v1/cluster/* to workers
//	memsynthd -join http://coord:8080           # this node registers as a
//	                                            # worker, runs shard jobs, and
//	                                            # reads through the
//	                                            # coordinator's store on misses
//
// -cluster-workers fixes the shard count per request (default: the live
// worker count at submission).
//
// On SIGINT/SIGTERM the daemon stops accepting connections, waits for
// in-flight requests and async jobs to drain (bounded by -drain-timeout),
// then cancels whatever remains; a draining worker finishes or hands back
// its running shard so no shard is lost. A second signal forces
// immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // pprof handlers, served only behind -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"memsynth/internal/cat"
	"memsynth/internal/catlint"
	"memsynth/internal/cluster"
	"memsynth/internal/memmodel"
	"memsynth/internal/server"
	"memsynth/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		dataDir      = flag.String("data-dir", "memsynthd-data", "suite store directory")
		maxJobs      = flag.Int("max-jobs", server.DefaultMaxJobs, "maximum concurrent synthesis engine runs")
		cacheEntries = flag.Int("cache-entries", store.DefaultCacheEntries, "in-memory suite cache capacity")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		modelsDir    = flag.String("models", "", "directory of *.cat model definitions to register at startup")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; off by default)")

		coordinator    = flag.Bool("coordinator", false, "coordinate a synthesis cluster: distribute cold requests to joined workers")
		joinURL        = flag.String("join", "", "join the cluster coordinated at this base URL (e.g. http://coord:8080) as a worker")
		clusterWorkers = flag.Int("cluster-workers", 0, "shards per distributed request (0 = live worker count at submission)")
		workerName     = flag.String("worker-name", "", "worker name reported to the coordinator (default: the hostname)")
	)
	flag.Parse()
	if *coordinator && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "memsynthd: -coordinator and -join are mutually exclusive")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux;
		// serve it on a separate listener so profiling endpoints are never
		// exposed on the public API address.
		go func() {
			log.Printf("memsynthd: pprof listening on %s", *pprofAddr)
			srv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("memsynthd: pprof server: %v", err)
			}
		}()
	}

	st, err := store.Open(*dataDir, *cacheEntries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	registry := memmodel.NewRegistry()
	if *modelsDir != "" {
		defs, err := filepath.Glob(filepath.Join(*modelsDir, "*.cat"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, path := range defs {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			m, err := cat.Compile(string(src))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				os.Exit(1)
			}
			if err := registry.Register(m); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				os.Exit(1)
			}
			log.Printf("memsynthd: registered model %q from %s (digest %.12s)", m.Name(), path, m.SourceDigest())
			for _, f := range catlint.Lint(string(src), catlint.Options{}).Findings {
				log.Printf("memsynthd: lint %s:%s", path, f)
			}
		}
	}

	cfg := server.Config{
		Store:   st,
		MaxJobs: *maxJobs,
		Models:  registry,
		Logf:    log.Printf,
	}
	var coord *cluster.Coordinator
	if *coordinator {
		coord = cluster.New(cluster.Config{
			ShardsPerRequest: *clusterWorkers,
			Logf:             log.Printf,
		})
		defer coord.Close()
		cfg.Cluster = coord
	}
	if *joinURL != "" {
		// Worker nodes treat the coordinator's store as a shared cache
		// tier: a local miss fetches the suite bundle before synthesizing.
		cfg.Peer = cluster.NewPeerClient(*joinURL, nil)
	}
	srv := server.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Worker mode: run the shard-job loop alongside the local HTTP API.
	// The worker drains on the same signal the HTTP server does — it
	// finishes or hands back its running shard before the process exits.
	workerDone := make(chan struct{})
	if *joinURL != "" {
		name := *workerName
		if name == "" {
			name, _ = os.Hostname()
		}
		wk := cluster.NewWorker(cluster.WorkerConfig{
			CoordinatorURL: *joinURL,
			Name:           name,
			DrainGrace:     *drainTimeout,
			Logf:           log.Printf,
		})
		go func() {
			defer close(workerDone)
			if err := wk.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("memsynthd: worker: %v", err)
			}
		}()
		log.Printf("memsynthd: joining cluster at %s as %q", *joinURL, name)
	} else {
		close(workerDone)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	mode := "standalone"
	switch {
	case *coordinator:
		mode = "coordinator"
	case *joinURL != "":
		mode = "worker"
	}
	log.Printf("memsynthd listening on %s (store %s, max-jobs %d, cache %d, mode %s)",
		*addr, *dataDir, *maxJobs, *cacheEntries, mode)

	select {
	case err := <-errc:
		log.Fatalf("memsynthd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process outright
	log.Printf("memsynthd: shutting down (draining up to %v)", *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("memsynthd: http shutdown: %v", err)
	}
	if err := srv.Drain(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("memsynthd: job drain: %v", err)
	}
	select {
	case <-workerDone:
	case <-drainCtx.Done():
		log.Printf("memsynthd: worker drain timed out")
	}
	srv.Close()
	log.Printf("memsynthd: bye")
}

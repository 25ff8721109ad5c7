// Command rocketd is the Rocket service daemon: a long-running HTTP
// server that admits all-pairs job submissions online and schedules them
// over one shared simulated cluster (see rocket/internal/serve for the
// API).
//
// Usage:
//
//	rocketd -addr :8080 -nodes 8 -policy fair -seed 1
//
// Submit and watch jobs with curl:
//
//	curl -s localhost:8080/v1/jobs -d '{"app":"forensics","items":16,"nodes":2}'
//	curl -s localhost:8080/v1/jobs/job0
//	curl -s localhost:8080/v1/jobs/job0/result
//	curl -N  localhost:8080/v1/jobs/job0/events
//	curl -s  localhost:8080/v1/log > served.json
//
// On SIGINT/SIGTERM the daemon stops admission (healthz turns 503, new
// submissions are refused), drains in-flight jobs within -drain-timeout,
// writes the replayable arrival log to -log, and prints the fleet report.
// Replaying the log offline reproduces the served trace exactly:
//
//	rocketqueue -replay served.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rocket"
)

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		nodes      = flag.Int("nodes", 8, "size of the shared simulated cluster")
		policy     = flag.String("policy", "fair", "placement policy: fifo, sjf, or fair")
		seed       = flag.Uint64("seed", 1, "fleet seed (drives per-job seed derivation)")
		maxQueued  = flag.Int("max-queued", 0, "admission limit: reject when this many jobs wait (0 = unlimited)")
		maxRunning = flag.Int("max-running", 0, "cap on concurrently executing jobs (0 = node-bound)")
		maxRetries = flag.Int("max-retries", 1, "requeues after partition loss before a job fails")
		workers    = flag.Int("workers", 0, "OS threads for inner simulations (0 = GOMAXPROCS)")
		timeScale  = flag.Float64("time-scale", 1, "virtual seconds per wall second for arrival mapping (0 = latch onto the virtual clock)")
		drainTO    = flag.Duration("drain-timeout", 60*time.Second, "graceful-drain deadline on SIGTERM")
		logPath    = flag.String("log", "", "write the replayable arrival log here on shutdown")
		storePath  = flag.String("store", "", "persistent pair store: loaded at start when present, saved on shutdown")
		statsPath  = flag.String("store-stats", "", "write pair-store stats JSON here on shutdown")
		trace      = flag.Bool("trace", false, "record scheduler spans and serve them as Perfetto JSON on /v1/trace")
		traceCap   = flag.Int("trace-cap", 0, "flight-recorder span capacity (0 = 64Ki); oldest spans are overwritten")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (kept off the public API listener)")
	)
	flag.Parse()

	pol, err := rocket.ParseQueuePolicy(*policy)
	if err != nil {
		return err
	}
	var store *rocket.PairStore
	var datasets []rocket.ServeDataset
	if *storePath != "" {
		var loaded bool
		store, loaded, err = rocket.LoadOrNewPairStore(*storePath)
		if err != nil {
			return err
		}
		if loaded {
			fmt.Fprintf(os.Stderr, "rocketd: warm pair store: %d resident results\n", store.Len())
		} else {
			fmt.Fprintf(os.Stderr, "rocketd: starting a fresh pair store at %s\n", *storePath)
		}
		// The dataset registry rides in a sidecar: a warm store is only
		// reachable through the datasets API when the registry that
		// produced it (IDs, seeds, computed versions) comes back too.
		raw, err := os.ReadFile(datasetsPath(*storePath))
		switch {
		case err == nil:
			if err := json.Unmarshal(raw, &datasets); err != nil {
				return fmt.Errorf("restore datasets: %w", err)
			}
			fmt.Fprintf(os.Stderr, "rocketd: restored %d datasets\n", len(datasets))
		case !os.IsNotExist(err):
			return err
		}
	}
	srv, err := rocket.Serve(rocket.ServeConfig{
		Nodes:         *nodes,
		Policy:        pol,
		MaxQueued:     *maxQueued,
		MaxRunning:    *maxRunning,
		MaxRetries:    *maxRetries,
		Workers:       *workers,
		Seed:          *seed,
		TimeScale:     *timeScale,
		Store:         store,
		Datasets:      datasets,
		Trace:         *trace,
		TraceCapacity: *traceCap,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		pln, err := startPprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer pln.Close()
		fmt.Fprintf(os.Stderr, "rocketd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "rocketd: serving %d nodes (policy %s, seed %d) on http://%s\n",
		*nodes, pol, *seed, ln.Addr())

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "rocketd: %v: draining (deadline %v)\n", sig, *drainTO)
	case err := <-httpErr:
		return err
	}

	// Stop admission first so in-flight HTTP submissions settle, then
	// drain the fleet within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	m, err := srv.Shutdown(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if *logPath != "" {
		buf, err := srv.Log().JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*logPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rocketd: wrote arrival log to %s (replay with: rocketqueue -replay %s)\n",
			*logPath, *logPath)
	}
	if *storePath != "" {
		if err := srv.Store().SealAndSave(*storePath); err != nil {
			return fmt.Errorf("save store: %w", err)
		}
		buf, err := json.MarshalIndent(srv.Datasets(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(datasetsPath(*storePath), append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("save datasets: %w", err)
		}
		st := srv.Store().Stats()
		fmt.Fprintf(os.Stderr, "rocketd: saved pair store to %s (%d entries, %d segments, %d bytes)\n",
			*storePath, st.Entries, st.Segments, st.Bytes)
	}
	if *statsPath != "" {
		buf, err := json.MarshalIndent(srv.Store().Stats(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*statsPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	hs.Shutdown(context.Background())
	fmt.Print(m.Report())
	return nil
}

// datasetsPath is the dataset-registry sidecar next to the store file.
func datasetsPath(storePath string) string { return storePath + ".datasets" }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rocketd:", err)
		os.Exit(1)
	}
}

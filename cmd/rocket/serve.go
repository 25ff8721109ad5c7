package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rocket"
)

// cmdServe runs rocketd, the Rocket service: a long-running HTTP server
// that admits all-pairs job submissions online and schedules them over
// one shared simulated cluster (see rocket/internal/serve for the API).
//
//	rocket serve -addr :8080 -nodes 8 -policy fair -seed 1
//
// Submit and watch jobs with curl:
//
//	curl -s localhost:8080/v1/jobs -d '{"app":"forensics","items":16,"nodes":2}'
//	curl -s localhost:8080/v1/jobs/job0
//	curl -s localhost:8080/v1/jobs/job0/result
//	curl -N  localhost:8080/v1/jobs/job0/events
//	curl -s  localhost:8080/v1/log > served.json
//
// On SIGINT/SIGTERM the service stops admission (healthz turns 503, new
// submissions are refused), drains in-flight jobs within -drain-timeout,
// writes the replayable arrival log to -log, and prints the fleet report.
// Replaying the log offline reproduces the served trace exactly:
//
//	rocket queue -replay served.json
func cmdServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg rocket.ServeConfig
	fs.IntVar(&cfg.Nodes, "nodes", 8, "size of the shared simulated cluster")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "fleet seed (drives per-job seed derivation)")
	fs.IntVar(&cfg.MaxQueued, "max-queued", 0, "admission limit: reject when this many jobs wait (0 = unlimited)")
	fs.IntVar(&cfg.MaxRunning, "max-running", 0, "cap on concurrently executing jobs (0 = node-bound)")
	fs.IntVar(&cfg.MaxRetries, "max-retries", 1, "requeues after partition loss before a job fails")
	fs.IntVar(&cfg.Workers, "workers", 0, "OS threads for inner simulations (0 = GOMAXPROCS)")
	fs.Float64Var(&cfg.TimeScale, "time-scale", 1, "virtual seconds per wall second for arrival mapping (0 = latch onto the virtual clock)")
	fs.BoolVar(&cfg.Trace, "trace", false, "record scheduler spans and serve them as Perfetto JSON on /v1/trace")
	fs.IntVar(&cfg.TraceCapacity, "trace-cap", 0, "flight-recorder span capacity (0 = 64Ki); oldest spans are overwritten")
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		policy    = fs.String("policy", "fair", "placement policy: fifo, sjf, or fair")
		drainTO   = fs.Duration("drain-timeout", 60*time.Second, "graceful-drain deadline on SIGTERM")
		logPath   = fs.String("log", "", "write the replayable arrival log here on shutdown")
		storePath = fs.String("store", "", "persistent pair store: loaded at start when present, saved on shutdown")
		statsPath = fs.String("store-stats", "", "write pair-store stats JSON here on shutdown")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (kept off the public API listener)")
	)
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	var err error
	if cfg.Policy, err = rocket.ParseQueuePolicy(*policy); err != nil {
		return fail(fs, 2, err)
	}
	if *storePath != "" {
		if cfg.Store, cfg.Datasets, err = loadStore(*storePath, stderr); err != nil {
			return fail(fs, 1, err)
		}
	}
	srv, err := rocket.Serve(cfg)
	if err != nil {
		// Serve only validates its configuration: the options above and
		// the restored dataset registry.
		return fail(fs, 2, err)
	}

	if *pprofAddr != "" {
		pln, err := startPprof(*pprofAddr)
		if err != nil {
			srv.Shutdown(context.Background())
			return fail(fs, 1, err)
		}
		defer pln.Close()
		fmt.Fprintf(stderr, "rocket serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	// The drain signal is caught from before the first request is
	// accepted, so a served job is always drained and reported.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Shutdown(context.Background())
		return fail(fs, 1, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "rocket serve: serving %d nodes (policy %s, seed %d) on http://%s\n",
		cfg.Nodes, cfg.Policy, cfg.Seed, ln.Addr())

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()
	select {
	case sig := <-sigs:
		fmt.Fprintf(stderr, "rocket serve: %v: draining (deadline %v)\n", sig, *drainTO)
	case err := <-httpErr:
		return fail(fs, 1, err)
	}

	// Stop admission first so in-flight HTTP submissions settle, then
	// drain the fleet within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	m, err := srv.Shutdown(ctx)
	if err != nil {
		return fail(fs, 1, fmt.Errorf("drain: %w", err))
	}
	if err := saveServed(srv, *logPath, *storePath, *statsPath, stderr); err != nil {
		return fail(fs, 1, err)
	}
	hs.Shutdown(context.Background())
	fmt.Fprint(stdout, m.Report())
	return 0
}

// loadStore opens the pair store at path, or starts a fresh one there,
// and restores the dataset registry from its sidecar. A warm store is
// only reachable through the datasets API when the registry that
// produced it (IDs, seeds, computed versions) comes back too.
func loadStore(path string, stderr io.Writer) (*rocket.PairStore, []rocket.ServeDataset, error) {
	store, loaded, err := rocket.LoadOrNewPairStore(path)
	if err != nil {
		return nil, nil, err
	}
	if loaded {
		fmt.Fprintf(stderr, "rocket serve: warm pair store: %d resident results\n", store.Len())
	} else {
		fmt.Fprintf(stderr, "rocket serve: starting a fresh pair store at %s\n", path)
	}
	raw, err := os.ReadFile(datasetsPath(path))
	if os.IsNotExist(err) {
		return store, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var datasets []rocket.ServeDataset
	if err := json.Unmarshal(raw, &datasets); err != nil {
		return nil, nil, fmt.Errorf("restore datasets: %w", err)
	}
	fmt.Fprintf(stderr, "rocket serve: restored %d datasets\n", len(datasets))
	return store, datasets, nil
}

// saveServed writes what a drained server leaves behind: the arrival
// log, the pair store with its dataset sidecar, and the store's stats.
// An empty path skips that file.
func saveServed(srv *rocket.Server, logPath, storePath, statsPath string, stderr io.Writer) error {
	if logPath != "" {
		buf, err := srv.Log().JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(logPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "rocket serve: wrote arrival log to %s (replay with: rocket queue -replay %s)\n",
			logPath, logPath)
	}
	if storePath != "" {
		if err := srv.Store().SealAndSave(storePath); err != nil {
			return fmt.Errorf("save store: %w", err)
		}
		buf, err := json.MarshalIndent(srv.Datasets(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(datasetsPath(storePath), append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("save datasets: %w", err)
		}
		st := srv.Store().Stats()
		fmt.Fprintf(stderr, "rocket serve: saved pair store to %s (%d entries, %d segments, %d bytes)\n",
			storePath, st.Entries, st.Segments, st.Bytes)
	}
	if statsPath != "" {
		buf, err := json.MarshalIndent(srv.Store().Stats(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// datasetsPath is the dataset-registry sidecar next to the store file.
func datasetsPath(storePath string) string { return storePath + ".datasets" }

// startPprof serves the net/http/pprof handlers on their own listener
// and mux. The profiler is deliberately never mounted on the public API
// mux: profiling endpoints can stall a handler goroutine for seconds
// (profile?seconds=N) and expose process internals, so they bind to a
// separate, typically loopback-only, address.
func startPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
	return ln, nil
}

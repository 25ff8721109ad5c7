package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rocket"
	"rocket/internal/jobspec"
)

// cmdQueue is rocketd's batch mode: it reads a job manifest, schedules
// every job over one shared simulated cluster under the chosen policy,
// and prints a throughput/latency report.
//
//	rocket queue -manifest jobs.json [-policy fair] [-seed 1] [-json]
//	rocket queue -replay served.json
//	rocket queue -example > jobs.json
//
// The manifest is JSON (package rocket/internal/jobspec):
//
//	{
//	  "nodes": 8,
//	  "policy": "fair",
//	  "max_queued": 0,
//	  "max_running": 0,
//	  "seed": 1,
//	  "jobs": [
//	    {"id": "big0", "tenant": "batch", "app": "microscopy",
//	     "items": 24, "nodes": 4, "arrival_ms": 0},
//	    {"id": "small1", "tenant": "interactive", "app": "forensics",
//	     "items": 16, "nodes": 1, "arrival_ms": 5}
//	  ]
//	}
//
// Apps are "forensics", "microscopy", or "bioinformatics"; items is the
// data-set size n. The -policy flag overrides the manifest's policy, so
// one manifest can be compared across fifo, sjf, and fair.
//
// -replay runs an arrival log recorded by `rocket serve` (GET /v1/log,
// or the file the service writes on shutdown). The log is an ordinary
// manifest whose arrivals are exact nanoseconds, so the batch run takes
// the same admission and placement decisions the server took; with
// -json, the output is byte-comparable against the server's final
// metrics document. A log whose entries are out of arrival order (a
// served log never is; hand-merged ones can be) is validated and
// stably re-sorted with a warning, because submission indices drive
// derived IDs and seeds and an unsorted replay would silently diverge.
//
// -store attaches a persistent pair store: it is loaded when the file
// exists (warm start — jobs with store refs skip resident pairs) and
// saved back after the run, so repeated batch runs over growing
// datasets become incremental.
func cmdQueue(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket queue", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		path      = fs.String("manifest", "", "path to the job manifest (JSON)")
		replay    = fs.String("replay", "", "path to a rocketd arrival log to replay (same schema)")
		policy    = fs.String("policy", "", "override the manifest's policy: fifo, sjf, or fair")
		seed      = fs.Uint64("seed", 0, "override the manifest's seed")
		asJSON    = fs.Bool("json", false, "print fleet metrics as JSON instead of tables")
		example   = fs.Bool("example", false, "print an example manifest and exit")
		storePath = fs.String("store", "", "persistent pair store: loaded when present, saved back after the run")
	)
	if code, ok := parseFlags(fs, args, false); !ok {
		return code
	}
	if *example {
		fmt.Fprint(stdout, exampleManifest)
		return 0
	}
	if *path != "" && *replay != "" {
		return fail(fs, 2, errors.New("-manifest and -replay are mutually exclusive"))
	}
	if *replay != "" {
		*path = *replay
	}
	if *path == "" {
		return fail(fs, 2, errors.New("a -manifest or -replay file is required (try -example)"))
	}
	cfg, err := queueConfig(*path, *replay != "", *policy, *seed, stderr)
	if err != nil {
		return fail(fs, 2, err)
	}

	if *storePath != "" {
		if cfg.Store, _, err = rocket.LoadOrNewPairStore(*storePath); err != nil {
			return fail(fs, 1, err)
		}
	}
	m, err := rocket.New(rocket.WithQueueConfig(cfg)).RunQueue()
	if err != nil {
		return fail(fs, 1, err)
	}
	if cfg.Store != nil {
		if err := cfg.Store.SealAndSave(*storePath); err != nil {
			return fail(fs, 1, fmt.Errorf("save store: %w", err))
		}
	}
	if !*asJSON {
		fmt.Fprint(stdout, m.Report())
		return 0
	}
	buf, err := m.JSON()
	if err != nil {
		return fail(fs, 1, err)
	}
	stdout.Write(buf)
	return 0
}

// queueConfig reads and checks the manifest at path and applies the
// command-line overrides (policy "" and seed 0 keep the manifest's).
func queueConfig(path string, replay bool, policy string, seed uint64, stderr io.Writer) (rocket.QueueConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return rocket.QueueConfig{}, err
	}
	man, err := jobspec.Parse(raw)
	if err != nil {
		return rocket.QueueConfig{}, fmt.Errorf("%s: %w", path, err)
	}
	// An arrival log must be in arrival order: submission indices drive
	// derived IDs and seeds, so replaying an out-of-order log as-is would
	// silently derive different jobs than the server ran. Normalize
	// (stable sort) and say so instead.
	if replay && man.Normalize() {
		fmt.Fprintf(stderr,
			"rocket queue: %s: out-of-order arrival_ns entries; re-sorted into arrival order before replay\n", path)
	}
	if seed != 0 {
		man.Seed = seed
	}
	if policy != "" {
		man.Policy = policy
	}
	return man.Config()
}

// The example's batch jobs are 6 nodes wide on an 8-node cluster: they
// serialize, and under FIFO the queued second batch job blocks the narrow
// interactive jobs even while 2 nodes idle — so comparing -policy fifo
// against sjf/fair on this manifest shows the scheduler's effect.
const exampleManifest = `{
  "nodes": 8,
  "policy": "fair",
  "seed": 1,
  "jobs": [
    {"id": "big0", "tenant": "batch", "app": "microscopy", "items": 24, "nodes": 6, "arrival_ms": 0},
    {"id": "big1", "tenant": "batch", "app": "microscopy", "items": 24, "nodes": 6, "arrival_ms": 0},
    {"id": "small0", "tenant": "interactive", "app": "forensics", "items": 16, "nodes": 1, "arrival_ms": 1},
    {"id": "small1", "tenant": "interactive", "app": "bioinformatics", "items": 16, "nodes": 1, "arrival_ms": 2},
    {"id": "small2", "tenant": "interactive", "app": "forensics", "items": 16, "nodes": 1, "arrival_ms": 3},
    {"id": "small3", "tenant": "interactive", "app": "bioinformatics", "items": 16, "nodes": 1, "arrival_ms": 4}
  ]
}
`

package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rocket/internal/scenario"
)

// cmdScenario runs declarative robustness scenarios: YAML files
// describing a platform, a fault script or a seeded chaos storm, and a
// set of assertions, executed over the deterministic simulation.
//
//	rocket scenario run [-seed N] [-report out.json] [-csv] [-q] file...
//	rocket scenario validate file...
func cmdScenario(args []string, stdout, stderr io.Writer) int {
	return dispatch("rocket scenario", []command{
		{"run", "[-seed N] [-report out.json|dir] [-csv] [-q] file...", cmdScenarioRun},
		{"validate", "file...", cmdScenarioValidate},
	}, args, stdout, stderr)
}

// cmdScenarioRun executes each scenario and prints its report; with
// -report the canonical JSON document is written (one file per scenario
// when more than one is given, named after the scenario). Every file is
// parsed, and every report destination checked, before the first
// scenario runs. The exit status is 1 if any assertion failed. The same
// scenario with the same seed always produces the byte-identical JSON
// report, which is what makes a committed scenario a regression test:
// CI runs each one twice and diffs.
func cmdScenarioRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket scenario run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 0, "override the scenario seed (0 keeps the file's)")
	reportPath := fs.String("report", "", "write the canonical JSON report here (a directory or name template when running several scenarios)")
	csv := fs.Bool("csv", false, "print metrics as CSV instead of the text report")
	quiet := fs.Bool("q", false, "print only failures and the final verdict")
	if code, ok := parseFlags(fs, args, true); !ok {
		return code
	}
	if fs.NArg() == 0 {
		return fail(fs, 2, errors.New("no scenario files given"))
	}
	scs := make([]*scenario.Scenario, fs.NArg())
	reports := make([]string, fs.NArg())
	writer := map[string]string{} // report file -> scenario file
	for i, path := range fs.Args() {
		sc, err := loadScenario(path)
		if err != nil {
			return fail(fs, 2, err)
		}
		scs[i] = sc
		if *reportPath == "" {
			continue
		}
		reports[i] = reportFile(*reportPath, sc.Name, fs.NArg() > 1)
		if prev, dup := writer[reports[i]]; dup {
			return fail(fs, 2, fmt.Errorf("%s and %s would both write report %s", prev, path, reports[i]))
		}
		writer[reports[i]] = path
	}

	allPass := true
	for i, sc := range scs {
		rep, err := scenario.Run(sc, scenario.RunOptions{Seed: *seed})
		if err != nil {
			return fail(fs, 1, fmt.Errorf("%s: %w", fs.Arg(i), err))
		}
		allPass = allPass && rep.Pass
		switch {
		case *csv:
			fmt.Fprint(stdout, rep.CSV())
		case *quiet:
			verdict := "PASS"
			if !rep.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(stdout, "%s: %s (%s)\n", verdict, rep.Scenario, rep.OutputSHA256[:12])
			for _, a := range rep.Assertions {
				if !a.Pass {
					fmt.Fprintf(stdout, "  FAIL %s: %s\n", a.Desc, a.Detail)
				}
			}
		default:
			fmt.Fprint(stdout, rep.Text())
		}
		if reports[i] == "" {
			continue
		}
		if err := writeReport(reports[i], rep); err != nil {
			return fail(fs, 1, err)
		}
		if !*quiet {
			fmt.Fprintf(stdout, "report: %s\n", reports[i])
		}
	}
	if !allPass {
		return 1
	}
	return 0
}

// reportFile resolves where one scenario's JSON report goes: the path
// itself for a single scenario, or <dir-or-stem>/<name>.json when dest
// is a directory or several scenarios share one -report destination.
func reportFile(dest, name string, multi bool) string {
	if st, err := os.Stat(dest); err == nil && st.IsDir() {
		return filepath.Join(dest, name+".json")
	}
	if !multi {
		return dest
	}
	return filepath.Join(strings.TrimSuffix(dest, ".json"), name+".json")
}

// writeReport writes rep's canonical JSON to path, creating its
// directory.
func writeReport(path string, rep *scenario.Report) error {
	doc, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// cmdScenarioValidate parses and checks scenarios (schema, node ranges,
// fault ordering, chaos shape) without running them, one line per file.
func cmdScenarioValidate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocket scenario validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if code, ok := parseFlags(fs, args, true); !ok {
		return code
	}
	if fs.NArg() == 0 {
		return fail(fs, 2, errors.New("no scenario files given"))
	}
	status := 0
	for _, path := range fs.Args() {
		sc, err := loadScenario(path)
		if err != nil {
			fmt.Fprintf(stderr, "INVALID %s: %v\n", path, err)
			status = 1
			continue
		}
		faults, _ := sc.CompileFaults()
		n := 0
		if faults != nil {
			n = len(faults.Events)
		}
		fmt.Fprintf(stdout, "ok %s: %s (%s, seed %d, %d fault events, %d assertions)\n",
			path, sc.Name, sc.Mode, sc.Seed, n, len(sc.Asserts))
	}
	return status
}

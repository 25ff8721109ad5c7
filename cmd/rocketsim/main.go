// Command rocketsim runs declarative robustness scenarios: YAML files
// describing a platform, a fault script or a seeded chaos storm, and a
// set of assertions, executed over the deterministic simulation.
//
// Usage:
//
//	rocketsim run [-seed N] [-report out.json] [-csv] [-q] file...
//	rocketsim validate file...
//	rocketsim list [dir]
//
// run executes each scenario and prints its report; with -report the
// canonical JSON document is written (one file per scenario when more
// than one is given, using the scenario name). The exit status is 1 if
// any assertion failed. The same scenario with the same seed always
// produces the byte-identical JSON report, which is what makes a
// committed scenario a regression test: CI runs each one twice and diffs.
//
// validate parses and checks scenarios (schema, node ranges, fault
// ordering, chaos shape) without running them.
//
// list shows every scenario under a directory (default scenarios/).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rocket/internal/report"
	"rocket/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "validate":
		os.Exit(cmdValidate(os.Args[2:]))
	case "list":
		os.Exit(cmdList(os.Args[2:]))
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rocketsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rocketsim run [-seed N] [-report out.json] [-csv] [-q] file...
  rocketsim validate file...
  rocketsim list [dir]`)
}

func load(path string) (*scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "override the scenario seed (0 keeps the file's)")
	reportPath := fs.String("report", "", "write the canonical JSON report here (a directory or name template when running several scenarios)")
	csv := fs.Bool("csv", false, "print metrics as CSV instead of the text report")
	quiet := fs.Bool("q", false, "print only failures and the final verdict")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "rocketsim run: no scenario files given")
		return 2
	}
	allPass := true
	for _, path := range fs.Args() {
		sc, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rocketsim: %v\n", err)
			return 2
		}
		rep, err := scenario.Run(sc, scenario.RunOptions{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rocketsim: %v\n", err)
			return 2
		}
		if !rep.Pass {
			allPass = false
		}
		switch {
		case *csv:
			fmt.Print(rep.CSV())
		case *quiet:
			verdict := "PASS"
			if !rep.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("%s: %s (%s)\n", verdict, rep.Scenario, rep.OutputSHA256[:12])
			if !rep.Pass {
				for _, a := range rep.Assertions {
					if !a.Pass {
						fmt.Printf("  FAIL %s: %s\n", a.Desc, a.Detail)
					}
				}
			}
		default:
			fmt.Print(rep.Text())
		}
		if *reportPath != "" {
			out, err := reportFile(*reportPath, rep.Scenario, fs.NArg() > 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rocketsim: %v\n", err)
				return 2
			}
			doc, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "rocketsim: %v\n", err)
				return 2
			}
			if err := os.WriteFile(out, doc, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rocketsim: %v\n", err)
				return 2
			}
			if !*quiet {
				fmt.Printf("report: %s\n", out)
			}
		}
	}
	if !allPass {
		return 1
	}
	return 0
}

// reportFile resolves where one scenario's JSON report goes: the path
// itself for a single scenario, or <dir-or-stem>/<name>.json when several
// scenarios share one -report destination.
func reportFile(dest, name string, multi bool) (string, error) {
	if st, err := os.Stat(dest); err == nil && st.IsDir() {
		return filepath.Join(dest, name+".json"), nil
	}
	if !multi {
		if dir := filepath.Dir(dest); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return "", err
			}
		}
		return dest, nil
	}
	stem := strings.TrimSuffix(dest, ".json")
	if err := os.MkdirAll(stem, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(stem, name+".json"), nil
}

func cmdValidate(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "rocketsim validate: no scenario files given")
		return 2
	}
	status := 0
	for _, path := range args {
		sc, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "INVALID %s: %v\n", path, err)
			status = 1
			continue
		}
		faults, _ := sc.CompileFaults()
		n := 0
		if faults != nil {
			n = len(faults.Events)
		}
		fmt.Printf("ok %s: %s (%s, seed %d, %d fault events, %d assertions)\n",
			path, sc.Name, sc.Mode, sc.Seed, n, len(sc.Asserts))
	}
	return status
}

func cmdList(args []string) int {
	dir := "scenarios"
	if len(args) > 0 {
		dir = args[0]
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "rocketsim: no scenarios under %s\n", dir)
		return 2
	}
	sort.Strings(paths)
	t := report.NewTable("Scenarios in "+dir, "file", "name", "mode", "seed", "description")
	status := 0
	for _, path := range paths {
		sc, err := load(path)
		if err != nil {
			t.AddRow(filepath.Base(path), "INVALID", "", "", err.Error())
			status = 1
			continue
		}
		t.AddRow(filepath.Base(path), sc.Name, sc.Mode, sc.Seed, sc.Description)
	}
	fmt.Print(t.String())
	return status
}

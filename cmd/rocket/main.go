// Command rocket is the one entry point to the Rocket runtime: the
// service, its load generator, the batch queue, the scenario harness,
// the span tracer and the paper's experiments are its subcommands.
//
// Usage:
//
//	rocket <command> [flags] [args]
//	rocket help
//
// Every subcommand parses its own flags, checks every option and
// argument before doing any work, and exits 0 on success, 1 on a failed
// run (a failed scenario assertion included) and 2 on a usage error,
// with nothing written to stdout. `rocket <command> -h` lists its flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rocket/internal/scenario"
)

// command is one row of a dispatch table: rocket's subcommands, and the
// sub-subcommands of `scenario` and `trace`.
type command struct {
	name  string
	usage string
	run   func(args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"serve", "run the rocketd HTTP job service", cmdServe},
	{"load", "drive a rocketd server with synthetic traffic", cmdLoad},
	{"queue", "schedule a job manifest, or replay an arrival log", cmdQueue},
	{"scenario", "run or validate declarative chaos scenarios", cmdScenario},
	{"trace", "record a run and render its virtual-time spans", cmdTrace},
	{"experiments", "regenerate the paper's tables and figures", cmdExperiments},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return dispatch("rocket", commands, args, stdout, stderr)
}

// dispatch runs the command args[0] names from table. `help` prints the
// table to stderr and succeeds; no command or an unknown one prints it
// and is a usage error.
func dispatch(prog string, table []command, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range table {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		if args[0] == "help" {
			printTable(stderr, prog, table)
			return 0
		}
		fmt.Fprintf(stderr, "%s: unknown command %q\n", prog, args[0])
	}
	printTable(stderr, prog, table)
	return 2
}

func printTable(w io.Writer, prog string, table []command) {
	fmt.Fprintf(w, "usage: %s <command> [flags] [args]\n\ncommands:\n", prog)
	for _, c := range table {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.usage)
	}
	fmt.Fprintf(w, "\nRun '%s <command> -h' for a command's flags.\n", prog)
}

// parseFlags parses args into fs. When the command must stop, ok is
// false and code is its exit status: 0 after -h, 2 after a bad flag or,
// for a command that takes no operands, a left-over argument. fs writes
// its own message to stderr.
func parseFlags(fs *flag.FlagSet, args []string, operands bool) (code int, ok bool) {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	case !operands && fs.NArg() > 0:
		return fail(fs, 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))), false
	}
	return 0, true
}

// fail writes err to stderr under the command's name and returns code.
func fail(fs *flag.FlagSet, code int, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return code
}

// loadScenario reads and parses one scenario file. Parse errors are
// prefixed with the path; read errors already name it.
func loadScenario(path string) (*scenario.Scenario, error) {
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

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command line args in process and returns the exit code
// and what it wrote to stdout and stderr.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// usageError is a command line that must be refused, and what stderr
// must say.
type usageError struct {
	args []string
	want string
}

// checkUsageErrors: each command line exits 2 with its message on stderr
// and nothing on stdout.
func checkUsageErrors(t *testing.T, cases []usageError) {
	t.Helper()
	for _, tc := range cases {
		code, out, errw := runArgs(tc.args...)
		if code != 2 {
			t.Errorf("rocket %q: exit %d, want 2", tc.args, code)
		}
		if out != "" || !strings.Contains(errw, tc.want) {
			t.Errorf("rocket %q: stdout %q, stderr %q (want %q on stderr)", tc.args, out, errw, tc.want)
		}
	}
}

// TestUsageErrors: a missing or unknown command, a bad flag, an
// out-of-range number, a bad operand or an argument file that does not
// load exits 2 with the message on stderr and nothing on stdout, before
// any work is done. The experiments and trace rows are in their own
// files.
func TestUsageErrors(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(manifest, []byte(exampleManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	checkUsageErrors(t, []usageError{
		{nil, "usage: rocket <command>"},
		{[]string{"rocketbench"}, `unknown command "rocketbench"`},
		{[]string{"-exp", "fig6"}, `unknown command "-exp"`},

		{[]string{"serve", "-policy", "lifo"}, `unknown policy "lifo"`},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-nodes", "0"}, "Nodes must be >= 1"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-max-queued", "-1"}, "negative admission limits"},
		{[]string{"serve", "-nodes", "eight"}, `invalid value "eight" for flag -nodes`},
		{[]string{"serve", "8080"}, `unexpected argument "8080"`},

		{[]string{"load", "-jobs", "0"}, "must be positive"},
		{[]string{"load", "-mode", "burst"}, `-mode "burst"`},
		{[]string{"load", "-timeout", "0"}, "-timeout 0s"},
		{[]string{"load", "-timeout", "-1s"}, "-timeout -1s"},
		{[]string{"load", "-fault-rate", "-0.5"}, "-fault-rate -0.5"},
		{[]string{"load", "-fault-rate", "1.5"}, "-fault-rate 1.5"},
		{[]string{"load", "-fault-rate", "NaN"}, "-fault-rate NaN"},
		{[]string{"load", "-scenario", "testdata/tiny.yaml"}, "fault-free schedule"},
		{[]string{"load", "-scenario", "does-not-exist.yaml"}, "does-not-exist.yaml"},

		{[]string{"queue"}, "a -manifest or -replay file is required"},
		{[]string{"queue", "-manifest", manifest, "-replay", manifest}, "mutually exclusive"},
		{[]string{"queue", "-manifest", "does-not-exist.json"}, "does-not-exist.json"},
		{[]string{"queue", "-manifest", "testdata/tiny.yaml"}, "testdata/tiny.yaml: "},
		{[]string{"queue", "-replay", manifest, "-policy", "lifo"}, `unknown policy "lifo"`},
		{[]string{"queue", "-manifest", manifest, "fifo"}, `unexpected argument "fifo"`},

		{[]string{"scenario"}, "usage: rocket scenario <command>"},
		{[]string{"scenario", "list"}, `unknown command "list"`},
		{[]string{"scenario", "run"}, "no scenario files given"},
		{[]string{"scenario", "run", "-seed", "x", "testdata/tiny.yaml"}, `invalid value "x" for flag -seed`},
		// Every file is loaded before the first one runs.
		{[]string{"scenario", "run", "testdata/tiny.yaml", "does-not-exist.yaml"}, "does-not-exist.yaml"},
		{[]string{"scenario", "validate"}, "no scenario files given"},
		{[]string{"scenario", "validate", "-q", "testdata/tiny.yaml"}, "not defined: -q"},
	})
}

// TestHelpListsCommands: help prints each dispatch table to stderr and
// succeeds, as does -h on a subcommand.
func TestHelpListsCommands(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"help"}, []string{"serve", "load", "queue", "scenario", "trace", "experiments"}},
		{[]string{"scenario", "help"}, []string{"run", "validate"}},
		{[]string{"trace", "help"}, []string{"timeline", "spans", "export", "top"}},
		{[]string{"queue", "-h"}, []string{"-manifest", "-replay", "-example", "-store", "-json"}},
	} {
		code, out, errw := runArgs(tc.args...)
		if code != 0 || out != "" {
			t.Errorf("rocket %q: exit %d, stdout %q; want 0 and nothing", tc.args, code, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(errw, w) {
				t.Errorf("rocket %q: stderr does not list %q:\n%s", tc.args, w, errw)
			}
		}
	}
}

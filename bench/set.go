package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type setOptions struct {
	seed    uint64
	seconds int
	trace   int
	smoke   bool
	repeat  int
	out     string
	outDir  string
}

// setRecord is one pass over every workload.
type setRecord struct {
	Results map[string]*result `json:"results"`
}

// runSet runs every workload in a child process of its own, repeat times
// over, a workload's repeats back to back (A B, A B, ...) so both sets
// see the same drift of the host. With two or more sets it compares the
// first two.
func runSet(o setOptions, stdout, stderr io.Writer) int {
	sets := make([]setRecord, o.repeat)
	for k := range sets {
		sets[k].Results = map[string]*result{}
	}
	code := 0
	for _, w := range workloads {
		for k := range sets {
			record := filepath.Join(o.outDir, fmt.Sprintf("%s.run%d.json", w.name, k+1))
			r, err := child(w.name, o, record, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			sets[k].Results[w.name] = r
			if r.Failed > 0 {
				code = 1
			}
		}
	}
	fmt.Fprintln(stdout)
	summarizeSet(sets[0], stdout)
	if o.out != "" {
		if err := writeJSON(o.out, sets[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if o.repeat >= 2 {
		diffs, excess := compareSets(sets[0], sets[1])
		printDiffs(diffs, stdout)
		if err := writeJSON(filepath.Join(o.outDir, "spread.json"), diffs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if excess {
			code = 1
		}
	}
	return code
}

// summarizeSet prints each workload's end-to-end metrics side by side.
func summarizeSet(s setRecord, w io.Writer) {
	fmt.Fprintln(w, "== summary (end-to-end metrics, medians)")
	for _, wl := range workloads {
		r := s.Results[wl.name]
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%s  digest=%.16s  attempted=%d failed=%d\n", wl.name, r.Digest, r.Attempted, r.Failed)
		for _, d := range boundedOn(wl.name) {
			if v, ok := r.Values[d.Name]; ok {
				fmt.Fprintf(w, "  %-20s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// boundedOn lists the metrics with a regression bound that workload
// reports: the shared end-to-end ones and its own headline ones.
func boundedOn(workload string) []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range headline {
		if d.on == nil {
			out = append(out, d)
			continue
		}
		for _, name := range d.on {
			if name == workload {
				out = append(out, d)
			}
		}
	}
	return out
}

// diff is one metric of one workload in two sets.
type diff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is the share of First by which Second is worse (negative:
	// better); for a First of 0 it is the absolute change.
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound"`
	Excess bool    `json:"excess"`
}

func worseBy(d metricDef, first, second float64) float64 {
	delta := second - first
	if d.Better == "higher" {
		delta = -delta
	}
	if first == 0 {
		return delta
	}
	return delta / first
}

// compareSets lines up every bounded metric of two sets and reports
// whether any got worse by more than its bound. Digests that differ are
// reported as an excess too: the same seed must give the same outputs.
func compareSets(a, b setRecord) ([]diff, bool) {
	var diffs []diff
	excess := false
	for _, wl := range workloads {
		ra, rb := a.Results[wl.name], b.Results[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range boundedOn(wl.name) {
			va, okA := ra.Values[d.Name]
			vb, okB := rb.Values[d.Name]
			if !okA || !okB {
				continue
			}
			df := diff{Workload: wl.name, Metric: d.Name, Unit: d.Unit, First: va, Second: vb, Bound: d.Bound}
			df.Worse = worseBy(d, va, vb)
			df.Excess = df.Worse > d.Bound+1e-12
			excess = excess || df.Excess
			diffs = append(diffs, df)
		}
		if ra.Provenance.Seed == rb.Provenance.Seed && ra.Digest != rb.Digest {
			diffs = append(diffs, diff{Workload: wl.name, Metric: "digest", Excess: true})
			excess = true
		}
	}
	return diffs, excess
}

func printDiffs(diffs []diff, w io.Writer) {
	fmt.Fprintln(w, "== second set against the first (worse by, as a share of the first; bound)")
	for _, d := range diffs {
		flag := ""
		if d.Excess {
			flag = "  EXCESS"
		}
		if d.Metric == "digest" {
			fmt.Fprintf(w, "  %-13s %-20s differs%s\n", d.Workload, d.Metric, flag)
			continue
		}
		fmt.Fprintf(w, "  %-13s %-20s %14.6g -> %-14.6g %+8.4f  (bound %.3f)%s\n",
			d.Workload, d.Metric, d.First, d.Second, d.Worse, d.Bound, flag)
	}
}

func readSet(path string) (setRecord, error) {
	var s setRecord
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readSet(pathA)
	b, errB := readSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	diffs, excess := compareSets(a, b)
	printDiffs(diffs, stdout)
	if excess {
		return 1
	}
	return 0
}

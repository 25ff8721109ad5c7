package scenario

// The scenario report: a seed-reproducible record of one run. The JSON
// form is the regression artefact — same scenario + same seed produces
// the byte-identical document, which CI enforces by running every
// committed scenario twice and diffing. The report therefore contains no
// wall-clock quantity and no map iteration: metrics are sorted slices, the fault timeline is in
// firing order, and the output hash digests the run's canonical summary
// line.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"rocket/internal/report"
)

// Report is the outcome of one scenario run.
type Report struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Seed     uint64 `json:"seed"`
	// Pass is the conjunction of all assertion outcomes.
	Pass bool `json:"pass"`
	// Assertions lists every assertion in file order.
	Assertions []AssertionResult `json:"assertions"`
	// Faults is the armed fault timeline in firing order (scripted or
	// chaos-generated; nil for fault-free scenarios).
	Faults []FaultRecord `json:"fault_timeline,omitempty"`
	// Metrics is the run summary as sorted name/value pairs.
	Metrics []MetricValue `json:"metrics"`
	// Summary is the run's canonical one-line summary.
	Summary string `json:"summary"`
	// OutputSHA256 digests Summary: two reports describe the same
	// simulated world if and only if their hashes match.
	OutputSHA256 string `json:"output_sha256"`
}

// AssertionResult is one assertion's outcome.
type AssertionResult struct {
	Desc   string  `json:"desc"`
	AtMS   float64 `json:"at_ms,omitempty"`
	Pass   bool    `json:"pass"`
	Detail string  `json:"detail,omitempty"`
}

// FaultRecord is one fault event of the timeline.
type FaultRecord struct {
	AtMS   float64 `json:"at_ms"`
	Kind   string  `json:"kind"`
	Target string  `json:"target"`
	Detail string  `json:"detail,omitempty"`
}

// MetricValue is one summary metric.
type MetricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// hashSummary digests the canonical summary line.
func hashSummary(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// JSON renders the canonical report document (trailing newline included,
// so the bytes are diff- and shell-friendly).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Text renders the human-readable report.
func (r *Report) Text() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s (%s, seed %d): %s\n", r.Scenario, r.Mode, r.Seed, verdict)
	fmt.Fprintf(&b, "summary: %s\n", r.Summary)
	fmt.Fprintf(&b, "output_sha256: %s\n", r.OutputSHA256)
	if len(r.Assertions) > 0 {
		t := report.NewTable("Assertions", "assertion", "outcome", "detail")
		for _, a := range r.Assertions {
			outcome := "pass"
			if !a.Pass {
				outcome = "FAIL"
			}
			t.AddRow(a.Desc, outcome, a.Detail)
		}
		b.WriteString("\n")
		b.WriteString(t.String())
	}
	if len(r.Faults) > 0 {
		t := report.NewTable(fmt.Sprintf("Fault timeline (%d events)", len(r.Faults)),
			"at (ms)", "kind", "target", "detail")
		for _, f := range r.Faults {
			t.AddRow(f.AtMS, f.Kind, f.Target, f.Detail)
		}
		b.WriteString("\n")
		b.WriteString(t.String())
	}
	if len(r.Metrics) > 0 {
		t := report.NewTable("Metrics", "metric", "value")
		for _, m := range r.Metrics {
			t.AddRow(m.Name, m.Value)
		}
		b.WriteString("\n")
		b.WriteString(t.String())
	}
	return b.String()
}

// CSV renders the metrics as CSV (one scenario per invocation; the
// scenario name is repeated per row so files concatenate cleanly).
func (r *Report) CSV() string {
	t := report.NewTable("", "scenario", "metric", "value")
	for _, m := range r.Metrics {
		t.AddRow(r.Scenario, m.Name, m.Value)
	}
	return t.CSV()
}

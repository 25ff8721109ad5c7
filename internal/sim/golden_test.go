package sim

import (
	"fmt"
	"strings"
	"testing"
)

// goldenWorkload drives a fixed mixed workload — delays, contended timed
// holds, mailbox hand-off, deferred callbacks, and
// same-timestamp ties — and records every observable step in dispatch
// order. The recorded trace pins the engine's (time, seq) determinism: any
// change to event ordering (a different heap arity is fine, a different
// tie-break is not) shows up as a trace diff. The 23 experiment hashes and
// event counts in internal/experiments' TestExperimentsGolden, not this
// list, are the cross-change ordering contract.
func goldenWorkload() []string {
	e := NewEnv()
	var log []string
	rec := func(format string, args ...interface{}) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}

	r := NewResource("r", 2)
	m := NewMailbox[int]("m")

	for i := 0; i < 4; i++ {
		i := i
		e.After(Time(i)*Millisecond, func() {
			rec("w%d waited", i)
			r.UseFunc(e, Time(3+i)*Millisecond, func(Time) {
				rec("w%d used r", i)
				m.Send(e, i)
			})
		})
	}
	recvN(e, m, 4, func(v int) {
		rec("recv %v", v)
		if v == 3 {
			rec("fired")
		}
	})
	// Land exactly on w2's wake-up time to exercise the seq tie-break.
	e.At(2*Millisecond, func() {
		rec("tie at 2ms")
		e.Defer(func() { rec("tie after defer") })
	})
	e.At(5*Millisecond, func() { rec("cb at 5ms") })
	e.After(Millisecond, func() { rec("cb after 1ms") })
	e.Run()
	rec("done events=%d", e.EventsProcessed())
	e.Close()
	return log
}

var goldenTrace = []string{
	"0ns w0 waited",
	"1.000ms w1 waited",
	"1.000ms cb after 1ms",
	"2.000ms w2 waited",
	"2.000ms tie at 2ms",
	"2.000ms tie after defer",
	"3.000ms w3 waited",
	"3.000ms w0 used r",
	"3.000ms recv 0",
	"5.000ms cb at 5ms",
	"5.000ms w1 used r",
	"5.000ms recv 1",
	"8.000ms w2 used r",
	"8.000ms recv 2",
	"11.000ms w3 used r",
	"11.000ms recv 3",
	"11.000ms fired",
	"11.000ms done events=18",
}

func TestGoldenTrace(t *testing.T) {
	got := goldenWorkload()
	if len(got) != len(goldenTrace) {
		t.Errorf("trace length %d, want %d", len(got), len(goldenTrace))
	}
	for i := 0; i < len(got) && i < len(goldenTrace); i++ {
		if got[i] != goldenTrace[i] {
			t.Errorf("trace[%d] = %q, want %q", i, got[i], goldenTrace[i])
		}
	}
	if t.Failed() {
		t.Logf("full trace:\n%s", strings.Join(got, "\n"))
	}
}

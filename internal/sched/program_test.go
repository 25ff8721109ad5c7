package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"rocket/internal/fault"
	"rocket/internal/sim"
)

// programBytes hands out a fuzz input one byte at a time; an exhausted
// input reads as zeros, so every byte string is a valid program.
type programBytes []byte

func (p *programBytes) next() int {
	if len(*p) == 0 {
		return 0
	}
	v := int((*p)[0])
	*p = (*p)[1:]
	return v
}

// Program flags, the first byte of a queue program.
const (
	progMaxQueued = 1 << iota
	progMaxRunning
	progFaults  // crash faults on some jobs, MaxRetries and KeepGoing
	progElastic // autoscaled pool: provision delay, idle timeout
	progStore   // every other job in one pair-store namespace
)

// queueProgram decodes bytes into a small scheduler run: up to 12 jobs of
// up to 3 nodes over 2–6 nodes, arrivals in 10 ms steps (ties included),
// any policy and admission limit, crash faults with a retry budget, and
// fixed or elastic pools. Every program is valid and runs to completion:
// KeepGoing is set whenever a job can lose its partition.
func queueProgram(data []byte) Config {
	r := programBytes(data)
	flags := r.next()
	cfg := Config{
		Nodes:  2 + r.next()%5,
		Policy: Policy(r.next() % 3),
		Seed:   uint64(r.next()) + 1,
	}
	if flags&progMaxQueued != 0 {
		cfg.MaxQueued = 1 + r.next()%3
	}
	if flags&progMaxRunning != 0 {
		cfg.MaxRunning = 1 + r.next()%3
	}
	faults := flags&progFaults != 0
	if faults {
		cfg.MaxRetries = r.next() % 3
		cfg.KeepGoing = true
	}
	if flags&progElastic != 0 {
		a := &Autoscale{
			MinNodes:       1 + r.next()%2,
			ProvisionDelay: sim.Millis(float64(5 * (r.next() % 4))),
			IdleTimeout:    sim.Millis(float64(20 * (r.next() % 4))),
		}
		a.BootNodes = a.MinNodes + r.next()%(cfg.Nodes-a.MinNodes+1)
		cfg.Elastic = a
	}
	width := min(cfg.Nodes, 3)
	var at sim.Time
	for i, n := 0, 1+r.next()%12; i < n; i++ {
		items := 3 + r.next()%8
		j := Job{
			Tenant:  []string{"a", "b", "c"}[r.next()%3],
			App:     smallApp(fmt.Sprintf("app%d", items), items, sim.Millis(float64(1+r.next()%4))),
			Nodes:   1 + r.next()%width,
			Arrival: at,
		}
		at += sim.Millis(float64(10 * (r.next() % 4)))
		if faults && r.next()%3 == 0 {
			j.Faults = new(fault.Schedule).Crash(0, sim.Millis(float64(1+r.next()%10)))
		}
		if flags&progStore != 0 && i%2 == 0 {
			j.StoreRef = "corpus"
			j.Seed = 42
			j.BaseItems = items / 2
		}
		cfg.Jobs = append(cfg.Jobs, j)
	}
	return cfg
}

// goldenProgram is the i-th program of TestRunGolden: random bytes from
// seed i under a fixed flag set and policy, so the sixteen programs cover
// every flag and policy whatever the random tail decodes to.
func goldenProgram(i int) []byte {
	flags := []int{
		0, progMaxQueued, progMaxRunning, progFaults,
		progElastic, progElastic | progFaults, progStore, progMaxQueued | progMaxRunning | progFaults,
		progElastic | progMaxQueued, progStore | progFaults, progElastic | progMaxRunning, progElastic | progStore,
		progFaults, progElastic, progElastic | progFaults | progMaxRunning, 0x1f,
	}
	data := make([]byte, 96)
	rand.New(rand.NewSource(int64(i))).Read(data)
	data[0] = byte(flags[i])
	data[2] = byte(i % 3)
	return data
}

// runDoc runs a program and returns its fleet metrics' JSON document
// followed by its report (which adds the autoscaler's bill).
func runDoc(t testing.TB, cfg Config) (*Metrics, []byte) {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatalf("program failed: %v", err)
	}
	doc, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return m, append(doc, m.Report()...)
}

// TestRunGolden pins the scheduler's decisions: the hash of sixteen
// seeded programs' metrics and reports. They are a behavioural contract: a
// change to the loop must leave every one unchanged, so never regenerate
// them to make a change pass.
func TestRunGolden(t *testing.T) {
	want := []string{
		"195022fdb4cf2423", "8de2987634f646fa", "aba29b33bc963b99", "c71c3f57a655ae6d",
		"a52e0b513e6a350f", "abc49811cc9c95ee", "cfde0bdf54257261", "78fe58ab14631ee3",
		"1987d74dde4e9d77", "7f6c3e307b8f6f62", "aa3b257d3e5ef980", "7d49c545d06d7bbb",
		"a58f9a159e2fb8fd", "86772f884a157cf6", "bd4bb58ee2c21de0", "f0a8ec3b6af6cdff",
	}
	for i := range want {
		_, doc := runDoc(t, queueProgram(goldenProgram(i)))
		sum := sha256.Sum256(doc)
		if got := hex.EncodeToString(sum[:8]); got != want[i] {
			t.Errorf("program %d: hash %s, want %s", i, got, want[i])
		}
	}
}

// checkQueueProgram runs one program at one and four workers and once
// more, and requires identical bytes, a single outcome per job and
// leases that never share a node in virtual time.
func checkQueueProgram(t *testing.T, data []byte) {
	cfg := queueProgram(data)
	var first []byte
	for _, workers := range []int{1, 4, 1} {
		cfg.Workers = workers
		m, doc := runDoc(t, cfg)
		if first == nil {
			first = doc
			checkOutcomes(t, m)
		} else if !bytes.Equal(doc, first) {
			t.Fatalf("workers=%d changed the run:\n%s\nvs\n%s", workers, doc, first)
		}
	}
}

func checkOutcomes(t *testing.T, m *Metrics) {
	t.Helper()
	if n := m.Completed + m.Rejected + m.Failed; n != len(m.Jobs) {
		t.Fatalf("completed %d + rejected %d + failed %d != %d jobs", m.Completed, m.Rejected, m.Failed, len(m.Jobs))
	}
	for i, a := range m.Jobs {
		if a.Rejected && (a.Failed || a.Nodes != nil) || !a.Rejected && !a.Failed && a.Inner == nil {
			t.Fatalf("job %s has no single outcome: %+v", a.ID, a)
		}
		for _, b := range m.Jobs[i+1:] {
			if a.End <= b.Start || b.End <= a.Start {
				continue
			}
			for _, na := range a.Nodes {
				for _, nb := range b.Nodes {
					if na == nb {
						t.Fatalf("jobs %s and %s hold node %d at once", a.ID, b.ID, na)
					}
				}
			}
		}
	}
}

// FuzzQueueProgram drives the scheduler with generated queue programs.
// Seed corpus under testdata/fuzz/FuzzQueueProgram.
func FuzzQueueProgram(f *testing.F) {
	for i := 0; i < 16; i++ {
		f.Add(goldenProgram(i))
	}
	f.Fuzz(checkQueueProgram)
}

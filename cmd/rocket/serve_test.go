package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestPprofListenerServesProfile: the -pprof listener answers a real
// CPU-profile request (the smoke test the flag exists for) and stays
// entirely off the public API mux.
func TestPprofListenerServesProfile(t *testing.T) {
	ln, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=1", ln.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("profile: empty body")
	}
	// pprof profiles are gzip-compressed protobufs; check the magic.
	if body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("profile: not gzip (first bytes % x)", body[:2])
	}
}

// TestServeDrainsAndReplays: serve admits two jobs over HTTP, drains
// them on SIGTERM, prints the fleet report and writes the arrival log;
// replaying that log with queue prints the same fleet summary.
func TestServeDrainsAndReplays(t *testing.T) {
	log := filepath.Join(t.TempDir(), "served.json")
	pr, pw := io.Pipe()
	var out bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- cmdServe([]string{"-addr", "127.0.0.1:0", "-nodes", "4", "-time-scale", "0", "-log", log}, &out, pw)
		pw.Close()
	}()
	// The address line is written once the listener is up, after the
	// SIGTERM handler is installed.
	lines := bufio.NewScanner(pr)
	var addr string
	for addr == "" && lines.Scan() {
		if _, after, ok := strings.Cut(lines.Text(), " on http://"); ok {
			addr = after
		}
	}
	if addr == "" {
		t.Fatalf("serve exited without listening (exit %d)", <-code)
	}
	go io.Copy(io.Discard, pr)

	for _, job := range []string{`{"app":"forensics","items":8}`, `{"app":"microscopy","items":8,"tenant":"lab"}`} {
		resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(job))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", job, resp.StatusCode)
		}
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("serve: exit %d", c)
	}
	served := out.String()
	if !strings.HasPrefix(served, "## rocketd: 2 jobs on 4 shared nodes") {
		t.Fatalf("serve report:\n%s", served)
	}

	c, replay, errw := runArgs("queue", "-replay", log)
	if c != 0 {
		t.Fatalf("queue -replay: exit %d, stderr: %s", c, errw)
	}
	if tail(served, 2) != tail(replay, 2) {
		t.Errorf("replay summary differs from the served one:\nserved:\n%s\nreplay:\n%s", served, replay)
	}
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.SplitAfter(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "")
}

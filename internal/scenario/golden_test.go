package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rocket/internal/jobspec"
)

// corpusReportSHA pins the sha256 of every committed scenario's JSON
// report at its file seed. A change to the decoder, the fault compiler or
// the runtime that moves any report byte fails here before it reaches
// `make smoke-scenarios`. Never regenerate these to make a change pass.
var corpusReportSHA = map[string]string{
	"crash-recovery.yaml":  "f2a795fd536f29cabd231cccb44fa46e6e5f13279bec7033a82f2516c2fcbbcc",
	"elastic-burst.yaml":   "9824c2865c592c656cfeae89dc17f795ffa2e2ff8d8c25ed3f2525dd2f32032f",
	"quickstart.yaml":      "59afc8ec259fc7d9d869be43a03e0813a64b47570bf893b091de7554bc948f4f",
	"straggler-storm.yaml": "e982015d2a3681bf0c8cbd7e3d7a5c3c55d477b9c480aa3e7c6ea8d82aadbf96",
	"stress-1k.yaml":       "7a183780260eb223e22d50f9dff53162fb36015f334db7a5a6deba911fc9d362",
	"zone-outage.yaml":     "6d5b8ec731550fb670b01d1d7361ab30f2a518771772809a9d0f1eee25185038",
}

// corpusWireFaultsSHA pins the sha256 of the JSON of the jobspec.Fault
// records `rocket load -scenario` sends for each committed scenario whose
// compiled schedule is non-empty: the wire bytes are a contract with every
// rocketd that receives them.
var corpusWireFaultsSHA = map[string]string{
	"crash-recovery.yaml":  "9a8bcf86cd2fd56d35e7fce481ec8bf50c4d08b233eb7766524b91b15f129404",
	"straggler-storm.yaml": "837b59a66f932d8c5010fde8142a8ef4616077f63e028eae12bd020ad87ad127",
	"stress-1k.yaml":       "671dab6347b54296517d0db3775c814bf7743000f0644e98b0c7f0f3b1cced1b",
	"zone-outage.yaml":     "8aa853f34795f3d6cce4bcea00a8df0faabae905909e138b691a9262fd2e0c01",
}

func corpus(t *testing.T) map[string]*Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenarios found: %v", err)
	}
	out := make(map[string]*Scenario, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = sc
	}
	return out
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestCorpusReportsGolden(t *testing.T) {
	scs := corpus(t)
	if len(scs) != len(corpusReportSHA) {
		t.Errorf("%d committed scenarios, %d pinned reports", len(scs), len(corpusReportSHA))
	}
	for name, sc := range scs {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && sc.nodeCount() >= 1000 {
				t.Skip("large stress scenario skipped under -short")
			}
			rep, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(doc); got != corpusReportSHA[name] {
				t.Errorf("report sha256 = %s, want %s", got, corpusReportSHA[name])
			}
		})
	}
}

func TestCorpusWireFaultsGolden(t *testing.T) {
	got := map[string]string{}
	for name, sc := range corpus(t) {
		sch, err := sc.CompileFaults()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sch.Empty() {
			continue
		}
		wire, err := jobspec.FaultsFromSchedule(sch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = sha(doc)
	}
	if len(got) != len(corpusWireFaultsSHA) {
		t.Errorf("%d scenarios with faults, %d pinned: %v", len(got), len(corpusWireFaultsSHA), got)
	}
	for name, h := range got {
		if h != corpusWireFaultsSHA[name] {
			t.Errorf("%s: wire faults sha256 = %s, want %s", name, h, corpusWireFaultsSHA[name])
		}
	}
}

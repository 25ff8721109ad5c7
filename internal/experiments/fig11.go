package experiments

import (
	"fmt"
	"strings"

	"rocket/internal/core"
	"rocket/internal/report"
)

// fig11 reproduces Fig. 11: the outcome distribution of distributed-cache
// requests with h = 3 on 16 nodes. Expected shape: the vast majority of
// requests either hit at the first hop (75-88% in the paper) or miss
// (11-19%); later hops contribute little — the justification for running
// everything else at h = 1.
func fig11(o Options) (string, error) {
	o = o.normalized()
	var b strings.Builder
	const hops = 3
	t := report.NewTable("Fig 11: distributed cache request outcomes, h=3, 16 nodes",
		"app", "requests", "hit@1", "hit@2", "hit@3", "miss")
	for _, s := range AllSetups(o) {
		m, err := s.runDAS5(16, func(cfg *core.Config) {
			cfg.DistCache = true
			cfg.Hops = hops
		})
		if err != nil {
			return "", fmt.Errorf("%s: %w", s.Name, err)
		}
		total := float64(m.DHT.Requests)
		if total == 0 {
			total = 1
		}
		pct := func(v uint64) string { return fmt.Sprintf("%.1f%%", 100*float64(v)/total) }
		t.AddRow(s.Name, m.DHT.Requests,
			pct(m.DHT.HitAtHop[0]), pct(m.DHT.HitAtHop[1]), pct(m.DHT.HitAtHop[2]),
			pct(m.DHT.Misses))
	}
	b.WriteString(t.String())
	return b.String(), nil
}

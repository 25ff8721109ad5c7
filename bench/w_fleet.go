package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"rocket/internal/fleet"
	"rocket/internal/sim"
)

// fleetDurationX stretches fleet.ScalingConfig's 10 ms of virtual time so
// one run simulates about 4.3 M events.
const fleetDurationX = 8

type fleetInst struct {
	width int // the wide engine width: GOMAXPROCS
	cfg   func(shards int) fleet.Config
}

func setupFleetShards(c *config) (instance, error) {
	f := &fleetInst{width: runtime.GOMAXPROCS(0)}
	stretch := sim.Time(fleetDurationX)
	if c.smoke {
		f.cfg = func(shards int) fleet.Config {
			cfg := fleet.DefaultConfig(64)
			cfg.Shards, cfg.Seed, cfg.Duration = shards, c.seed, sim.Millis(2)
			return cfg
		}
		return f, nil
	}
	f.cfg = func(shards int) fleet.Config {
		cfg := fleet.ScalingConfig(shards)
		cfg.Seed = c.seed
		cfg.Duration *= stretch
		return cfg
	}
	// The discarded warm-up: the unstretched fleet at both widths.
	for _, w := range []int{1, f.width} {
		cfg := f.cfg(w)
		cfg.Duration /= stretch
		if _, err := fleet.Run(cfg); err != nil {
			return nil, fmt.Errorf("warm-up at width %d: %w", w, err)
		}
	}
	return f, nil
}

func (f *fleetInst) close() {}

// fleetRound is one alternation: the same fleet at width 1 and at the
// wide width.
type fleetRound struct {
	narrow, wide         fleet.Result
	narrowWall, wideWall float64
}

func (f *fleetInst) runRounds(r *result, tr *tracer, seconds float64, min int) ([]fleetRound, error) {
	var rounds []fleetRound
	_, err := iterate(seconds, min, func(i int) error {
		root := tr.begin("round", "loadgen", -1, i)
		var rd fleetRound
		for _, side := range []struct {
			shards int
			res    *fleet.Result
			wall   *float64
		}{{1, &rd.narrow, &rd.narrowWall}, {f.width, &rd.wide, &rd.wideWall}} {
			call := tr.begin(fmt.Sprintf("fleet.Run w=%d", side.shards), "fleet", root, i)
			start := time.Now()
			res, err := fleet.Run(f.cfg(side.shards))
			*side.wall = time.Since(start).Seconds()
			tr.end(call)
			if err != nil {
				return err
			}
			*side.res = res
		}
		r.check(rd.narrow.StateHash == rd.wide.StateHash && rd.narrow.String() == rd.wide.String(),
			"round %d: width %d gave %q, width 1 gave %q", i, f.width, rd.wide, rd.narrow)
		if len(rounds) > 0 {
			r.check(rd.wide.String() == rounds[0].wide.String(), "round %d output differs from round 0", i)
		}
		tr.end(root)
		rounds = append(rounds, rd)
		return nil
	})
	return rounds, err
}

func fleetRates(rounds []fleetRound) (narrow, wide []float64) {
	for _, rd := range rounds {
		narrow = append(narrow, float64(rd.narrow.Events)/rd.narrowWall)
		wide = append(wide, float64(rd.wide.Events)/rd.wideWall)
	}
	return narrow, wide
}

func (f *fleetInst) measure(c *config, r *result) error {
	seconds, min := c.seconds, 2
	if c.traced() {
		seconds, min = c.seconds/2, 1
	}
	if c.smoke {
		seconds, min = 0, 1
	}
	mt := startMeter()
	plain, err := f.runRounds(r, nil, seconds, min)
	if err != nil {
		return err
	}
	d := mt.stop()
	r.Counts["rounds"] = len(plain)
	r.Counts["width"] = f.width
	res := plain[0].wide
	r.Counts["events"] = int(res.Events)
	sum := sha256.Sum256([]byte(res.String()))
	r.Digest = hex.EncodeToString(sum[:])

	narrow, wide := fleetRates(plain)
	r.timing("events_per_s", wide)
	r.timing("fleet.events_per_s_w1", narrow)
	r.timing("fleet.events_per_s_wN", wide)
	r.set("sim.shard_speedup", ratio(median(wide), median(narrow)))
	r.set("work_per_s", r.Values["events_per_s"])
	walls := make([]float64, len(plain))
	for i, rd := range plain {
		walls[i] = rd.wideWall * 1e3
	}
	r.timing("op_ms", walls)
	// Both widths ran inside the meter; charge the CPU to all their events.
	r.set("cpu_us_per_work", 1e6*d.cpu/(2*float64(res.Events)*float64(len(plain))))

	if !c.traced() {
		return nil
	}
	var traced []fleetRound
	_, err = profiled(r, func() (err error) {
		traced, err = f.runRounds(r, c.tr, seconds, min)
		return err
	})
	if err != nil {
		return err
	}
	r.Counts["traced_rounds"] = len(traced)
	_, tracedWide := fleetRates(traced)
	r.set("trace_overhead_frac", overhead(r.Values["events_per_s"], median(tracedWide), true))

	r.set("sim.events_per_s", median(wide))
	r.set("sim.windows", float64(res.Windows))
	r.set("sim.events_per_window", ratio(float64(res.Events), float64(res.Windows)))
	r.set("fleet.messages_per_event", ratio(float64(res.Messages), float64(res.Events)))

	raw := c.tr.begin("sim.Env raw events", "sim", -1, len(plain)+len(traced))
	r.set("sim.raw_ns_per_event", rawEventNs(1<<20))
	c.tr.end(raw)
	return nil
}

// rawEventNs is the engine's ceiling: a bare sim.Env running total
// events as 64 chains of After callbacks, nothing else on the queue.
func rawEventNs(total int) float64 {
	env := sim.NewEnv()
	const chains = 64
	left := total
	var step func()
	step = func() {
		if left > 0 {
			left--
			env.After(sim.Micros(1), step)
		}
	}
	for i := 0; i < chains; i++ {
		env.After(sim.Time(i+1), step)
	}
	start := time.Now()
	env.Run()
	took := time.Since(start)
	return ratio(float64(took.Nanoseconds()), float64(env.EventsProcessed()))
}

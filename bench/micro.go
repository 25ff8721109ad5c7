package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rocket"
	"rocket/internal/apps/forensics"
	"rocket/internal/jobspec"
	"rocket/internal/sched"
)

// serveMicro prices, one call at a time and with no TCP in the way, the
// fixed costs every served job pays: a Run of the smallest possible job,
// decoding a spec, the submit and status handlers, and the scheduler's
// per-job bookkeeping. They ride on serve_closed's traced run.
func serveMicro(c *config, r *result) {
	const op = -1
	timed := func(name, layer string, fn func() error) {
		sp := c.tr.begin(name, layer, -1, op)
		err := fn()
		c.tr.end(sp)
		r.check(err == nil, "%s: %v", name, err)
	}

	timed("core.Run of a 2-item job", "core", func() error {
		app := forensics.New(forensics.Params{N: 2, Seed: c.seed})
		runner := rocket.New(rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
			rocket.WithDistCache(true), rocket.WithSeed(c.seed))
		var samples []float64
		for i := 0; i < 300; i++ {
			t := time.Now()
			if _, err := runner.Run(app); err != nil {
				return err
			}
			samples = append(samples, ms(time.Since(t)))
		}
		r.set("core.run_fixed_ms", median(samples))
		return nil
	})

	specs := genJobs(c.seed, 500, serveMix, "m")
	timed("jobspec.Parse + Spec.Job", "jobspec", func() error {
		raw, err := jobspec.Manifest{Nodes: serveNodes, Seed: c.seed, Jobs: specs}.JSON()
		if err != nil {
			return err
		}
		t := time.Now()
		man, err := jobspec.Parse(raw)
		if err != nil {
			return err
		}
		for i, spec := range man.Jobs {
			if _, err := spec.Job(i, man.Seed); err != nil {
				return err
			}
		}
		r.set("jobspec.decode_us_per_spec", float64(time.Since(t).Nanoseconds())/1e3/float64(len(man.Jobs)))
		return nil
	})

	timed("serve handlers on a ResponseRecorder", "serve", func() error {
		srv, err := rocket.Serve(rocket.ServeConfig{Nodes: serveNodes, Policy: rocket.PolicyFairShare, Seed: c.seed})
		if err != nil {
			return err
		}
		h := srv.Handler()
		var submit, status []float64
		for _, spec := range specs {
			spec.Items, spec.Nodes = 2, 1
			body, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rec, req)
			submit = append(submit, float64(time.Since(t).Nanoseconds())/1e3)
			if rec.Code != http.StatusAccepted {
				return fmt.Errorf("submit of %s: status %d", spec.ID, rec.Code)
			}
		}
		for _, spec := range specs {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+spec.ID, nil)
			rec := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rec, req)
			status = append(status, float64(time.Since(t).Nanoseconds())/1e3)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status of %s: status %d", spec.ID, rec.Code)
			}
		}
		r.set("serve.handler_submit_us", median(submit))
		r.set("serve.handler_status_us", median(status))
		_, err = srv.Shutdown(context.Background())
		return err
	})

	timed("sched.Run over 2000 two-item jobs", "sched", func() error {
		const n = 2000
		app := forensics.New(forensics.Params{N: 2, Seed: c.seed})
		jobs := make([]sched.Job, n)
		for i := range jobs {
			jobs[i] = sched.Job{App: app, Nodes: 1}
		}
		t := time.Now()
		m, err := sched.Run(sched.Config{Jobs: jobs, Nodes: serveNodes, Policy: sched.PolicyFairShare, Seed: c.seed})
		if err != nil {
			return err
		}
		r.set("sched.fixed_us_per_job", float64(time.Since(t).Nanoseconds())/1e3/n)
		if m.Completed != n {
			return fmt.Errorf("%d of %d jobs completed", m.Completed, n)
		}
		return nil
	})
}

package experiments

import (
	"sync"
	"sync/atomic"
)

// forEach runs fn(i) for every i in [0, n) on a pool of o.Workers workers
// (sequentially when Workers <= 1). It is the run-level parallelism behind
// the sweep experiments: each point builds and runs its own simulation
// Env, so execution order cannot influence results — callers must write
// outputs to index-addressed slots and render them after forEach returns,
// which is what keeps every experiment's output byte-identical at every
// pool size. When several points fail, the lowest-indexed error is
// returned, so the reported failure does not depend on the pool either.
func (o Options) forEach(n int, fn func(i int) error) error {
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int32
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

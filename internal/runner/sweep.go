package runner

// Sweep executes every configuration concurrently across a worker pool and
// returns the results in input order. workers <= 0 means GOMAXPROCS.
//
// Each run owns its simulator, RNG, and nodes outright (the sim package's
// determinism contract), so runs share no mutable state and the output is a
// pure function of cfgs: results are keyed by input index, never by
// completion order, making Sweep's output bitwise independent of the worker
// count, GOMAXPROCS, and goroutine scheduling. If any run fails, the error
// of the lowest-index failing configuration is returned (again independent
// of scheduling); results are discarded on error.
func Sweep(cfgs []Config, workers int) ([]*Result, error) {
	return sweepAll(len(cfgs), workers, func(i int) (*Result, error) { return Run(cfgs[i]) })
}

// SweepSeeds runs one configuration across many seeds — the multi-seed
// repetition pattern of every experiment — returning per-seed results in
// seed order.
func SweepSeeds(cfg Config, seeds []int64, workers int) ([]*Result, error) {
	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = cfg
		cfgs[i].Seed = s
	}
	return Sweep(cfgs, workers)
}

// SweepRBC is Sweep for reliable-broadcast experiments (E1, A4).
func SweepRBC(cfgs []RBCConfig, workers int) ([]*RBCResult, error) {
	return sweepAll(len(cfgs), workers, func(i int) (*RBCResult, error) { return RunRBC(cfgs[i]) })
}

// sweepAll runs every index in [0, n) on the streaming engine and collects
// the results by index. The error of the lowest-index failing run wins, so
// the returned error does not depend on which worker ran what.
func sweepAll[T any](n, workers int, run func(int) (T, error)) ([]T, error) {
	results := make([]T, n)
	err := sweepStream(n, workers, run, func(i int, res T) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

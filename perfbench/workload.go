package main

import (
	"fmt"
	"runtime"

	"repro/internal/check"
	"repro/internal/runner"
)

// A workload is one seed-determined input the benchmark repeats. One
// iteration of it is a fixed batch of ops; the timed loop repeats the same
// iteration, so every iteration at one seed must produce the same
// deterministic counts (the determinism guard).
type workload struct {
	// iterate runs one timed iteration.
	iterate func() (iteration, error)
	// warm runs a reduced op during set-up, so lazy initialisation and
	// heap growth are paid before the first timed op.
	warm func() error
	// traced runs one traced iteration (see trace.go).
	traced func(seconds float64) (*tracedResult, error)
}

// iteration is what one iteration of a workload produced.
type iteration struct {
	ops    int  // ops attempted
	failed int  // ops that failed a check
	unsafe bool // some op broke a safety property (agreement, exactly-once)
	det    counts
}

// counts are the deterministic outputs of one iteration: a pure function of
// (workload, seed), compared bitwise across iterations and against the
// traced rebuild. They are kept apart from every wall-clock field.
type counts struct {
	Deliveries  int64  `json:"deliveries"`
	Messages    int64  `json:"messages"`
	WireBytes   int64  `json:"wire_bytes"`
	SimTime     int64  `json:"sim_time"`
	Entries     int64  `json:"entries"`
	LogDigest   uint64 `json:"log_digest"`
	StateDigest uint64 `json:"state_digest"`
}

const (
	smrN = 16
	smrF = 5

	// logSlots is one log iteration: 64 committed slots, ≈1.9M deliveries.
	logSlots = 64
	// bulkSlots is one bulk iteration: 8 slots of 64 × 4 KiB commands.
	bulkSlots = 8
	bulkBatch = 64

	sweepN        = 10
	sweepF        = 3
	sweepScenario = "equivocation-rush"
	// sweepRuns is one sweep iteration: this many consensus runs, seeds
	// [1+seed·sweepRuns, 1+(seed+1)·sweepRuns).
	sweepRuns = 400
	// maxSeed bounds |seed| so every derived seed range fits in int64.
	maxSeed = 1 << 53
)

// logConfig is the agreement-bound replicated log: unbatched short
// commands, one per slot (every rotation member holds ceil(slots/n)).
func logConfig(seed int64, slots int) runner.SMRConfig {
	return runner.SMRConfig{
		N: smrN, F: smrF,
		Slots:           slots,
		Commands:        (slots + smrN - 1) / smrN,
		CheckpointEvery: 32,
		Coin:            runner.CoinCommon,
		Sched:           runner.SchedUniform,
		Seed:            seed,
		MaxDeliveries:   smrBudget(slots, 1),
	}
}

// bulkConfig is the dissemination-bound replicated log: full 64-command
// batches of 4 KiB commands (256 KiB bodies), erasure-coded, pipelined two
// deep.
func bulkConfig(seed int64, slots int) runner.SMRConfig {
	return runner.SMRConfig{
		N: smrN, F: smrF,
		Slots:           slots,
		Commands:        (slots + smrN - 1) / smrN * bulkBatch,
		CommandBytes:    4096,
		Batch:           bulkBatch,
		Depth:           2,
		Coded:           true,
		CheckpointEvery: 4,
		Coin:            runner.CoinCommon,
		Sched:           runner.SchedUniform,
		Seed:            seed,
		MaxDeliveries:   smrBudget(slots, 2),
	}
}

// smrBudget is an explicit delivery budget, about twice a healthy run's
// ≈7·n³ deliveries per slot. Setting it in the config keeps RunSMR and the
// traced rebuild on one budget.
func smrBudget(slots, depth int) int {
	return 16 * (slots + depth - 1) * smrN * smrN * smrN
}

// expectedEntries is the committed-entry count of a healthy run: every slot
// carries a full batch (or one command unbatched).
func expectedEntries(cfg runner.SMRConfig) int {
	if cfg.Batch > 1 {
		return cfg.Slots * cfg.Batch
	}
	return cfg.Slots
}

// smrOutcome is the part of a replicated-log run the benchmark checks and
// compares. RunSMR and the traced rebuild both reduce to it.
type smrOutcome struct {
	counts
	Mismatches        int
	DuplicateCommands int
	SubmitDropped     int
	FullStream        bool
	Exhausted         bool
}

func outcomeOf(res *runner.SMRResult) smrOutcome {
	return smrOutcome{
		counts: counts{
			Deliveries:  int64(res.Deliveries),
			Messages:    int64(res.Messages),
			WireBytes:   res.WireBytes,
			SimTime:     int64(res.EndTime),
			Entries:     int64(res.Entries),
			LogDigest:   res.LogDigest,
			StateDigest: res.StateDigest,
		},
		Mismatches:        res.Mismatches,
		DuplicateCommands: res.DuplicateCommands,
		SubmitDropped:     res.SubmitDropped,
		FullStream:        res.FullStream,
		Exhausted:         res.Exhausted,
	}
}

// verdict applies the per-run checks: the run fails on any listed
// condition, and is unsafe when replicas disagree or a command commits
// twice.
func (o smrOutcome) verdict(cfg runner.SMRConfig) (failed, unsafe bool) {
	unsafe = o.Mismatches > 0 || o.DuplicateCommands > 0
	failed = unsafe || o.SubmitDropped > 0 || !o.FullStream || o.Exhausted ||
		o.Entries < int64(expectedEntries(cfg))
	return failed, unsafe
}

// smrIteration runs one RunSMR op batch (one run of cfg.Slots slots).
func smrIteration(cfg runner.SMRConfig) (iteration, error) {
	res, err := runner.RunSMR(cfg)
	if err != nil {
		return iteration{}, err
	}
	o := outcomeOf(res)
	it := iteration{ops: cfg.Slots, det: o.counts}
	failed, unsafe := o.verdict(cfg)
	if failed {
		it.failed = cfg.Slots
	}
	it.unsafe = unsafe
	return it, nil
}

// sweepSpec expands the sweep workload's property spec exactly as
// runner.PropertySweep does.
func sweepSpec(seed int64, runs, workers int) (runner.SweepSpec, error) {
	sc, err := runner.ScenarioByName(sweepScenario)
	if err != nil {
		return runner.SweepSpec{}, err
	}
	from := 1 + seed*int64(runs)
	return runner.PropertySpec{
		N: sweepN, F: sweepF,
		Scenario: sc,
		Seeds:    runner.SeedRange{From: from, To: from + int64(runs)},
		Workers:  workers,
	}.SweepSpec()
}

// sweepRun judges one consensus run: it fails when it records a violation,
// is undecided or exhausted its budget, and is unsafe on any violation but
// termination.
func sweepRun(it *iteration, res *runner.Result) {
	it.ops++
	if len(res.Violations) > 0 || !res.AllDecided || res.Exhausted {
		it.failed++
	}
	for _, v := range res.Violations {
		if v.Property != check.PropTermination {
			it.unsafe = true
		}
	}
	it.det.Deliveries += int64(res.Deliveries)
	it.det.Messages += int64(res.Messages)
	it.det.WireBytes += res.WireBytes
	it.det.SimTime += int64(res.EndTime)
}

// sweepIteration runs the spec's seed range through the runner's worker
// pool, the one runner.PropertySweep drives. It calls runner.SweepStream
// rather than PropertySweep because PropertySweep reduces the per-run
// results into an Aggregate that keeps neither wire bytes nor which runs
// failed; the same Aggregate is still folded here, so the reduction's cost
// stays inside the op.
func sweepIteration(spec runner.SweepSpec) (iteration, error) {
	agg := runner.NewAggregate()
	var it iteration
	err := runner.SweepStream(int(spec.Seeds.Len()), spec.Workers, func(i int) runner.Config {
		cfg := spec.Cfg
		cfg.Seed = spec.Seeds.From + int64(i)
		return cfg
	}, func(i int, res *runner.Result) error {
		agg.Observe(spec.Seeds.From+int64(i), res)
		sweepRun(&it, res)
		return nil
	})
	if err != nil {
		return iteration{}, err
	}
	return it, nil
}

// newWorkload builds a workload from its name and seed.
func newWorkload(name string, seed int64) (*workload, error) {
	if seed <= -maxSeed || seed >= maxSeed {
		return nil, fmt.Errorf("seed %d outside (-2^53, 2^53)", seed)
	}
	switch name {
	case "log":
		return smrWorkload(seed, logConfig, logSlots, 4), nil
	case "bulk":
		return smrWorkload(seed, bulkConfig, bulkSlots, 1), nil
	case "sweep":
		workers := runtime.NumCPU()
		spec, err := sweepSpec(seed, sweepRuns, workers)
		if err != nil {
			return nil, err
		}
		warm, err := sweepSpec(seed, 2*workers, workers)
		if err != nil {
			return nil, err
		}
		return &workload{
			iterate: func() (iteration, error) { return sweepIteration(spec) },
			warm: func() error {
				_, err := sweepIteration(warm)
				return err
			},
			traced: func(seconds float64) (*tracedResult, error) { return traceSweep(spec, seconds) },
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want log, bulk or sweep)", name)
}

// smrWorkload is a replicated-log workload: iterations of slots slots, a
// warm-up run of warmSlots slots.
func smrWorkload(seed int64, mk func(int64, int) runner.SMRConfig, slots, warmSlots int) *workload {
	cfg := mk(seed, slots)
	return &workload{
		iterate: func() (iteration, error) { return smrIteration(cfg) },
		warm: func() error {
			_, err := runner.RunSMR(mk(seed, warmSlots))
			return err
		},
		traced: func(seconds float64) (*tracedResult, error) { return traceSMR(cfg, seconds) },
	}
}

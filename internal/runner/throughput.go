package runner

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the committed-entries throughput mode: a (batch, pipeline
// depth) grid over the replicated-log workload, each point sized to commit
// at least a target number of entries, run across the same index-keyed
// worker pool as Sweep so the full grid's output is bitwise independent of
// worker count. Every reported number is deterministic — entries, virtual
// end time, deliveries, digests — a pure function of (config, seed);
// wall-clock rates are the caller's business (cmd/bench measures them and
// keeps them out of the comparable JSON).

// ThroughputConfig describes one throughput sweep.
type ThroughputConfig struct {
	N int // total processes
	F int // fault bound
	// Entries is the committed-entry target per grid point (> 0): each
	// point sizes its slot count as ceil(Entries/batch) and preloads full
	// batches, so every point commits at least Entries entries.
	Entries int
	// Batches and Depths are the grid axes (empty = {1}); the grid runs
	// batch-major in the given order.
	Batches []int
	Depths  []int
	// CheckpointEvery is the checkpoint cadence in slots (0 = off);
	// throughput numbers must not depend on it (the digests certainly do
	// not — CI diffs them).
	CheckpointEvery int
	// Window is the inner consensus retention window (0 = core default).
	Window int
	// Coin selects the per-slot coin (0 = CoinLocal).
	Coin CoinKind
	// CommandBytes pads every preloaded command to at least this many bytes
	// (0 = short protocol-exercising commands; see SMRConfig.CommandBytes).
	CommandBytes int
	// Coded switches candidate dissemination to erasure-coded reliable
	// broadcast (SMRConfig.Coded). Digests must be bitwise identical either
	// way; WireBytes is what moves.
	Coded bool
	// Seed drives every point; the whole grid is a pure function of
	// (config, seed).
	Seed int64
	// Workers sizes the pool (<= 0 = GOMAXPROCS). Results are keyed by
	// grid index, never completion order.
	Workers int
}

// ThroughputPoint is one grid point's deterministic outcome.
type ThroughputPoint struct {
	Batch int
	Depth int
	// Slots is the agreement instances the point ran (ceil(Entries/Batch)):
	// the whole win of batching is that Entries entries cost Slots — not
	// Entries — consensus rounds.
	Slots int
	// Entries is the committed entries observed in [0, Slots).
	Entries int
	// Deliveries, Messages, and EndTime (virtual sim time) are the
	// deterministic denominators: entries per delivery and entries per
	// virtual tick compare across batch/depth without wall-clock noise.
	Deliveries int
	Messages   int
	EndTime    sim.Time
	// WireBytes is the run's wire.MessageSize total — the bandwidth figure
	// the dissemination experiment (E14) reports per grid point.
	WireBytes int64
	// LogDigest and StateDigest are the reference replica's digests at the
	// Slots boundary — bitwise equal across worker counts and checkpoint
	// cadences for a given (config, seed, batch, depth).
	LogDigest   uint64
	StateDigest uint64
	// Health: all must be zero in a well-formed run.
	Mismatches        int
	SubmitDropped     int
	DuplicateCommands int
	Exhausted         bool
}

// EntriesPerKDeliveries returns committed entries per thousand deliveries —
// the deterministic throughput figure (deliveries are the simulator's unit
// of work, so this is the batch-efficiency ratio the experiment tables
// report).
func (p *ThroughputPoint) EntriesPerKDeliveries() float64 {
	if p.Deliveries == 0 {
		return 0
	}
	return float64(p.Entries) * 1000 / float64(p.Deliveries)
}

// RunThroughput executes the grid and returns one point per (batch, depth)
// pair, batch-major in input order.
func RunThroughput(cfg ThroughputConfig) ([]*ThroughputPoint, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("%w: throughput sweep needs Entries > 0", ErrBadConfig)
	}
	batches := cfg.Batches
	if len(batches) == 0 {
		batches = []int{1}
	}
	depths := cfg.Depths
	if len(depths) == 0 {
		depths = []int{1}
	}
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("%w: batch %d", ErrBadConfig, b)
		}
	}
	for _, d := range depths {
		if d <= 0 {
			return nil, fmt.Errorf("%w: pipeline depth %d", ErrBadConfig, d)
		}
	}

	type gridPoint struct{ batch, depth int }
	grid := make([]gridPoint, 0, len(batches)*len(depths))
	for _, b := range batches {
		for _, d := range depths {
			grid = append(grid, gridPoint{b, d})
		}
	}

	return sweepAll(len(grid), cfg.Workers, func(i int) (*ThroughputPoint, error) {
		g := grid[i]
		slots := (cfg.Entries + g.batch - 1) / g.batch
		// Preload full batches: each rotation member proposes at most
		// ceil(slots/n) turns, each consuming up to batch commands, so this
		// many commands per member keeps every disseminated batch full (no
		// noop padding diluting the entry count).
		n := cfg.N
		commands := (slots + n - 1) / n * g.batch
		res, err := RunSMR(SMRConfig{
			N: cfg.N, F: cfg.F,
			Slots:           slots,
			Commands:        commands,
			CommandBytes:    cfg.CommandBytes,
			Batch:           g.batch,
			Depth:           g.depth,
			CheckpointEvery: cfg.CheckpointEvery,
			Window:          cfg.Window,
			Coin:            cfg.Coin,
			Coded:           cfg.Coded,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("throughput point batch=%d depth=%d: %w", g.batch, g.depth, err)
		}
		return &ThroughputPoint{
			Batch: g.batch, Depth: g.depth,
			Slots:             slots,
			Entries:           res.Entries,
			Deliveries:        res.Deliveries,
			Messages:          res.Messages,
			EndTime:           res.EndTime,
			WireBytes:         res.WireBytes,
			LogDigest:         res.LogDigest,
			StateDigest:       res.StateDigest,
			Mismatches:        res.Mismatches,
			SubmitDropped:     res.SubmitDropped,
			DuplicateCommands: res.DuplicateCommands,
			Exhausted:         res.Exhausted,
		}, nil
	})
}

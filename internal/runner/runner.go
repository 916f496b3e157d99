// Package runner is the experiment harness: it assembles a cluster (correct
// nodes of either protocol, Byzantine adversaries, a scheduler, a coin),
// runs it on the simulator to quiescence, applies the invariant checkers,
// and reports metrics. Every test sweep, benchmark, and cmd/bench experiment
// goes through Run, so "0 violations" always means machine-checked.
//
// Three layers build on Run:
//
//   - Sweep/SweepSeeds fan independent runs across a worker pool, buffering
//     all results (fine for table-sized sweeps).
//   - SweepStream/SweepSeedRange stream results through a constant-memory
//     reducer with periodic resumable checkpoints — the engine for
//     million-run sweeps (format and determinism contract: checkpoint.go).
//   - PropertySweep drives the adversarial property-test scenario battery
//     (harness.go) through the streaming engine.
package runner

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// Protocol selects the consensus implementation.
type Protocol int

// Protocols.
const (
	ProtocolBracha Protocol = iota + 1 // the paper's protocol (n > 3f)
	ProtocolBenOr                      // the 1983 baseline (n > 5f)
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolBracha:
		return "bracha"
	case ProtocolBenOr:
		return "benor"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// CoinKind selects the randomization source.
type CoinKind int

// Coin kinds.
const (
	CoinLocal  CoinKind = iota + 1 // private per-process flips (Ben-Or style)
	CoinCommon                     // Rabin-style dealer coin
	CoinIdeal                      // test-only shared coin, no messages
)

// String implements fmt.Stringer.
func (c CoinKind) String() string {
	switch c {
	case CoinLocal:
		return "local"
	case CoinCommon:
		return "common"
	case CoinIdeal:
		return "ideal"
	default:
		return fmt.Sprintf("CoinKind(%d)", int(c))
	}
}

// Adversary selects the Byzantine behaviour of the faulty processes.
type Adversary int

// Adversary kinds.
const (
	AdvNone         Adversary = iota + 1 // no faulty processes at all
	AdvSilent                            // crash at time zero
	AdvEquivocator                       // RBC equivocation + double echo/ready
	AdvLiar                              // protocol-shaped value flipping
	AdvDecideForger                      // forged DECIDE gadget messages
	AdvSplitBrain                        // per-partition personalities (E7)
	AdvCrashMidway                       // correct participation, then mid-protocol crash
)

// String implements fmt.Stringer.
func (a Adversary) String() string {
	switch a {
	case AdvNone:
		return "none"
	case AdvSilent:
		return "silent"
	case AdvEquivocator:
		return "equivocator"
	case AdvLiar:
		return "liar"
	case AdvDecideForger:
		return "decide-forger"
	case AdvSplitBrain:
		return "split-brain"
	case AdvCrashMidway:
		return "crash-midway"
	default:
		return fmt.Sprintf("Adversary(%d)", int(a))
	}
}

// SchedulerKind selects message scheduling.
type SchedulerKind int

// Scheduler kinds.
const (
	SchedUniform      SchedulerKind = iota + 1 // uniform random delays (fair async)
	SchedFIFO                                  // uniform + per-link FIFO
	SchedRushByz                               // uniform, Byzantine traffic rushed
	SchedPartition                             // uniform, cross-partition traffic delayed
	SchedReorder                               // adversarial newest-first reordering (+ rushed Byzantine)
	SchedSplitHeal                             // network split between correct halves, healed mid-run
	SchedRejoin                                // one correct process unreachable, rejoining mid-run
	SchedStraggler                             // one correct process runs rounds behind on a continuously lagged inbox
	SchedLossy                                 // lossy/duplicating/jittery links under ARQ (loss converts to delay)
	SchedTopology                              // ring topology: traffic relayed along the overlay, HopLag per hop
	SchedAdaptive                              // adaptive adversary: delay targeted at the decision frontier
	SchedAdaptiveRush                          // adaptive + traffic-triggered rush of Byzantine traffic at the victim
)

// Default adversarial schedule timings (simulator ticks; base delays are
// 1..20, so a consensus round typically spans a few dozen ticks — these land
// the heal and the rejoin several rounds into the run). Each is the value a
// zero SchedParams field resolves to, so configs predating the parameterized
// zoo replay bitwise identically.
const (
	healTime     sim.Time = 240 // SchedSplitHeal: when cross-partition traffic thaws
	rejoinTime   sim.Time = 300 // SchedRejoin: when the victim's inbox floods back
	reorderSpan  sim.Time = 48  // SchedReorder: the newest-first reordering window
	stragglerLag sim.Time = 300 // SchedStraggler: extra delay on all straggler-bound links
	partitionLag sim.Time = 500 // SchedPartition: extra delay on cross-partition links

	defaultLossPct                = 20  // SchedLossy: per-attempt loss probability, percent
	defaultDupPct                 = 10  // SchedLossy: per-send duplication probability, percent
	defaultRetransmitLag sim.Time = 40  // SchedLossy: delay per lost attempt
	defaultTopoDegree             = 2   // SchedTopology: direct reach in ring hops
	defaultHopLag        sim.Time = 12  // SchedTopology: delay per relay hop
	defaultTargetLag     sim.Time = 120 // SchedAdaptive*: extra delay into the frontier process
)

// SchedParams parameterizes the scheduler zoo: every hardcoded timing of the
// adversarial schedule families, lifted into one searchable coordinate
// space. The zero value of every field means "the historical default", so a
// zero SchedParams reproduces the pre-parameterization schedules bitwise —
// the golden replay hashes pin this. internal/search walks this space
// hunting liveness cliffs; a point it finds can be pinned verbatim on a
// Scenario.
type SchedParams struct {
	HealTime     sim.Time `json:"healTime,omitempty"`     // SchedSplitHeal thaw time
	RejoinTime   sim.Time `json:"rejoinTime,omitempty"`   // SchedRejoin flood time
	ReorderSpan  sim.Time `json:"reorderSpan,omitempty"`  // SchedReorder window
	StragglerLag sim.Time `json:"stragglerLag,omitempty"` // SchedStraggler inbound lag
	PartitionLag sim.Time `json:"partitionLag,omitempty"` // SchedPartition cross-link lag

	LossPct       int      `json:"lossPct,omitempty"`       // SchedLossy loss percent
	DupPct        int      `json:"dupPct,omitempty"`        // SchedLossy duplication percent
	RetransmitLag sim.Time `json:"retransmitLag,omitempty"` // SchedLossy per-loss delay

	TopoDegree int      `json:"topoDegree,omitempty"` // SchedTopology ring reach
	HopLag     sim.Time `json:"hopLag,omitempty"`     // SchedTopology per-hop delay

	TargetLag sim.Time `json:"targetLag,omitempty"` // SchedAdaptive* frontier delay
}

// withDefaults resolves zero fields to the historical constants.
func (p SchedParams) withDefaults() SchedParams {
	if p.HealTime == 0 {
		p.HealTime = healTime
	}
	if p.RejoinTime == 0 {
		p.RejoinTime = rejoinTime
	}
	if p.ReorderSpan == 0 {
		p.ReorderSpan = reorderSpan
	}
	if p.StragglerLag == 0 {
		p.StragglerLag = stragglerLag
	}
	if p.PartitionLag == 0 {
		p.PartitionLag = partitionLag
	}
	if p.LossPct == 0 {
		p.LossPct = defaultLossPct
	}
	if p.DupPct == 0 {
		p.DupPct = defaultDupPct
	}
	if p.RetransmitLag == 0 {
		p.RetransmitLag = defaultRetransmitLag
	}
	if p.TopoDegree == 0 {
		p.TopoDegree = defaultTopoDegree
	}
	if p.HopLag == 0 {
		p.HopLag = defaultHopLag
	}
	if p.TargetLag == 0 {
		p.TargetLag = defaultTargetLag
	}
	return p
}

// String implements fmt.Stringer.
func (s SchedulerKind) String() string {
	switch s {
	case SchedUniform:
		return "uniform"
	case SchedFIFO:
		return "fifo"
	case SchedRushByz:
		return "rush-byz"
	case SchedPartition:
		return "partition"
	case SchedReorder:
		return "reorder"
	case SchedSplitHeal:
		return "split-heal"
	case SchedRejoin:
		return "rejoin"
	case SchedStraggler:
		return "straggler"
	case SchedLossy:
		return "lossy"
	case SchedTopology:
		return "topology"
	case SchedAdaptive:
		return "adaptive"
	case SchedAdaptiveRush:
		return "adaptive-rush"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(s))
	}
}

// Inputs selects the proposal pattern of the correct processes.
type Inputs int

// Input patterns.
const (
	InputUnanimous0 Inputs = iota + 1
	InputUnanimous1
	InputSplit  // alternating 0, 1, 0, 1, ...
	InputRandom // seeded random bits
)

// String implements fmt.Stringer.
func (i Inputs) String() string {
	switch i {
	case InputUnanimous0:
		return "unanimous-0"
	case InputUnanimous1:
		return "unanimous-1"
	case InputSplit:
		return "split"
	case InputRandom:
		return "random"
	default:
		return fmt.Sprintf("Inputs(%d)", int(i))
	}
}

// Config describes one experiment run.
type Config struct {
	N int // total processes
	F int // assumed fault bound (thresholds derive from this)
	// Byzantine is the actual number of faulty processes; -1 means "equal
	// to F". Setting it above F reproduces the tightness experiment.
	Byzantine int

	Protocol  Protocol
	Coin      CoinKind
	Adversary Adversary
	Scheduler SchedulerKind
	Inputs    Inputs
	// Sched parameterizes the scheduler family (zero value = the historical
	// defaults, so pre-existing configs — and their golden replay hashes and
	// checkpoint manifests — are untouched). See SchedParams.
	Sched SchedParams `json:",omitzero"`

	Seed          int64
	MaxDeliveries int  // 0 = sim default
	MaxRounds     int  // 0 = protocol default
	Trace         bool // record events (slower, for debugging)
	// Telemetry attaches the deterministic telemetry plane: per-kind wire
	// counters and latency histograms plus protocol phase histograms,
	// surfaced as Result.Telemetry. Integer state only — the report is a
	// pure function of (Config, Seed), bitwise identical across worker
	// counts and GOMAXPROCS.
	Telemetry bool

	DisableValidation   bool // ablation A1 (Bracha only)
	DisableDecideGadget bool // ablation A2
	// Coded disseminates step messages over erasure-coded reliable broadcast
	// (Bracha only; Ben-Or has no RBC plane). Decisions and rounds are
	// identical to the uncoded mode; Result.WireBytes shows the cost side —
	// for step-sized bodies coding is a bandwidth *loss* (the checksum vector
	// dwarfs the body), which is exactly what experiment E14 quantifies
	// against the batch-sized bodies of the SMR plane.
	Coded bool
	// DisablePruning retains per-round state for the whole run (Bracha
	// only; behaviour-neutral by construction — the E11 memory comparison
	// and `bench -sweep -no-prune` are its only users).
	DisablePruning bool
	// Window is the per-round retention window of the correct Bracha nodes
	// (0 = the core default of 1; see core.Config.Window). Behaviour-
	// neutral at any value: the windowed golden-replay tests and the CI
	// sweep diff hold every run bitwise identical across window sizes.
	Window int
}

// DefaultLowWatermarkEvery is how many deliveries pass between cluster
// low-watermark scans for the common-coin dealer. Each scan takes the
// minimum current round across the correct nodes and prunes the dealer's
// memoized sharings below it — the only per-round retainer shared across
// the cluster, so no single node may prune it alone. Behaviour-neutral:
// pruned rounds are ones no process will release or query again. The
// cadence is frequent enough that dealer retention tracks the cluster's
// slowest process closely, rare enough that the O(n) round scan is
// amortized to nothing against the ~n³ deliveries a round takes.
const DefaultLowWatermarkEvery = 1024

// DealerFloor is the dealer's pruning floor for a cluster whose slowest
// correct process is at minRound under retention window W (0 or less = the
// default of 1): everything below minRound − (W−1) is provably dead — no
// process will release or query a round below its own current round, and
// rounds only advance. Every low-watermark scan (runner.Run's delivery
// loop, experiment E11's workload) must derive its floor from this one
// function: the arithmetic is load-bearing for the never-re-deal guarantee
// (see coin.Dealer's windowing contract).
func DealerFloor(minRound, window int) int {
	if window <= 0 {
		window = 1
	}
	return minRound - (window - 1)
}

// Result is what one run produced.
type Result struct {
	Config     Config
	Violations []check.Violation
	Decisions  map[types.ProcessID]types.Value
	// Rounds maps each decided correct process to its decision round.
	Rounds map[types.ProcessID]int
	// MeanRounds averages Rounds over decided processes (0 if none).
	MeanRounds float64
	// MaxRound is the largest decision round (0 if none decided).
	MaxRound int
	// AllDecided reports whether every correct process decided.
	AllDecided bool
	// Messages / Deliveries / EndTime / Exhausted come from the simulator.
	Messages   int
	Deliveries int
	EndTime    sim.Time
	Exhausted  bool
	// WireBytes is the wire.MessageSize total over every sent message — the
	// run's bandwidth under the real codec, measured without encoding.
	WireBytes int64
	// Dropped counts messages the scheduler dropped or that expired when
	// their destination finished; Spoofed counts sends rejected for a forged
	// From (see sim.Stats).
	Dropped int
	Spoofed int
	// PrunedLate sums, over the correct Bracha nodes, the justified
	// messages that arrived for rounds already released by per-round
	// pruning and were dropped (see core.Stats.PrunedLate).
	PrunedLate int
	// RBCCompacted sums, over the correct Bracha nodes, the terminal RBC
	// instances released to compact delivered-digest records by windowed
	// pruning (0 with pruning disabled).
	RBCCompacted int
	// RBCDigestBytes sums the bytes the correct Bracha nodes retain in
	// compact delivered-digest records at the end of the run — the residue
	// windowed pruning keeps forever, retired only by protocol-level
	// checkpointing (internal/ckpt, experiment E12).
	RBCDigestBytes int
	// JustificationsRetained sums the per-round justification digests the
	// correct Bracha nodes' validators retain at the end of the run — the
	// other forever-residue of windowed pruning.
	JustificationsRetained int
	// DealerRoundsRetained is the common-coin dealer's memoized sharing
	// count at the end of the run (0 for other coins) — bounded by the
	// cluster round spread under low-watermark pruning, linear in rounds
	// without it.
	DealerRoundsRetained int
	// Recorder holds the trace when Config.Trace was set.
	Recorder *trace.Recorder
	// Telemetry holds the telemetry sink when Config.Telemetry was set.
	Telemetry *sim.Telemetry
}

// node is the common read surface of both protocol implementations.
type node interface {
	sim.Node
	Decided() (types.Value, bool)
	DecidedRound() int
	Round() int
	Proposal() types.Value
}

// Config errors.
var (
	ErrBadConfig = errors.New("runner: invalid config")
)

// Run executes one configured experiment.
func Run(cfg Config) (*Result, error) {
	if cfg.Byzantine < 0 {
		cfg.Byzantine = cfg.F
	}
	spec, err := quorum.New(cfg.N, cfg.F)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Byzantine >= cfg.N {
		return nil, fmt.Errorf("%w: %d byzantine of %d processes", ErrBadConfig, cfg.Byzantine, cfg.N)
	}
	if cfg.Adversary == AdvNone {
		cfg.Byzantine = 0
	}
	if cfg.Byzantine == 0 {
		cfg.Adversary = AdvNone
	}
	if cfg.Protocol == ProtocolBenOr && cfg.DisableValidation {
		return nil, fmt.Errorf("%w: Ben-Or has no validation to disable", ErrBadConfig)
	}
	if cfg.Protocol == ProtocolBenOr && cfg.Coded {
		return nil, fmt.Errorf("%w: Ben-Or has no broadcast plane to code", ErrBadConfig)
	}

	peers := types.Processes(cfg.N)
	correct := peers[:cfg.N-cfg.Byzantine]
	byz := peers[cfg.N-cfg.Byzantine:]
	groupA, groupB := splitGroups(correct)

	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.New(0)
	}
	var tele *sim.Telemetry
	if cfg.Telemetry {
		tele = sim.NewTelemetry()
	}
	net, err := sim.New(sim.Config{
		Scheduler:     buildScheduler(cfg, byz, groupA, groupB),
		Seed:          cfg.Seed,
		MaxDeliveries: cfg.MaxDeliveries,
		Recorder:      rec,
		Telemetry:     tele,
		Sizer:         wire.MessageSize,
	})
	if err != nil {
		return nil, err
	}

	var dealer *coin.Dealer
	if cfg.Coin == CoinCommon {
		dealer = coin.NewDealer(spec, cfg.Seed+1)
	}
	coinFor := func(p types.ProcessID) (coin.Coin, error) {
		switch cfg.Coin {
		case CoinLocal:
			return coin.NewLocal(cfg.Seed + 1000*int64(p)), nil
		case CoinCommon:
			return coin.NewCommon(p, peers, dealer), nil
		case CoinIdeal:
			return coin.NewIdeal(cfg.Seed + 2), nil
		default:
			return nil, fmt.Errorf("%w: coin %v", ErrBadConfig, cfg.Coin)
		}
	}

	nodes := make([]node, 0, len(correct))
	for i, p := range correct {
		c, err := coinFor(p)
		if err != nil {
			return nil, err
		}
		nd, err := buildCorrect(cfg, spec, p, peers, c, proposalFor(cfg, i, p), rec, tele)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			return nil, err
		}
	}
	for _, p := range byz {
		adv, err := buildAdversary(cfg, spec, p, peers, groupA, groupB)
		if err != nil {
			return nil, err
		}
		if adv == nil {
			continue // silent processes need no node at all
		}
		if err := net.Add(adv); err != nil {
			return nil, err
		}
	}

	stop := func() bool {
		for _, nd := range nodes {
			if cfg.DisableDecideGadget {
				if _, ok := nd.Decided(); !ok {
					return false
				}
			} else if !nd.Done() {
				return false
			}
		}
		return true
	}
	if dealer != nil && !cfg.DisablePruning && len(nodes) > 0 {
		// The dealer's memoized sharings are shared cluster state: prune
		// them by the cluster low-watermark — the minimum current round
		// across the correct nodes, a round no process will release or
		// query again (rounds only advance; ShareFor is only called for a
		// node's current round). Scanned every DefaultLowWatermarkEvery
		// deliveries inside the existing stop callback; the cadence moves
		// only retention, never behaviour, so it is exempt from the replay
		// contract the same way pruning itself is.
		inner := stop
		countdown := DefaultLowWatermarkEvery
		stop = func() bool {
			if countdown--; countdown <= 0 {
				countdown = DefaultLowWatermarkEvery
				low := nodes[0].Round()
				for _, nd := range nodes[1:] {
					if r := nd.Round(); r < low {
						low = r
					}
				}
				dealer.Prune(DealerFloor(low, cfg.Window))
			}
			return inner()
		}
	}
	stats, err := net.Run(stop)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Config:     cfg,
		Decisions:  make(map[types.ProcessID]types.Value, len(nodes)),
		Rounds:     make(map[types.ProcessID]int, len(nodes)),
		Messages:   stats.Sent,
		Deliveries: stats.Delivered,
		EndTime:    stats.End,
		Exhausted:  stats.Exhausted,
		WireBytes:  stats.Bytes,
		Dropped:    stats.Dropped,
		Spoofed:    stats.Spoofed,
		Recorder:   rec,
		Telemetry:  tele,
		AllDecided: true,
	}
	obs := check.ConsensusObservation{
		Proposals: make(map[types.ProcessID]types.Value, len(nodes)),
		Decisions: make(map[types.ProcessID][]types.Value, len(nodes)),
		Quiesced:  true,
	}
	var roundSum int
	for _, nd := range nodes {
		id := nd.ID()
		obs.Correct = append(obs.Correct, id)
		obs.Proposals[id] = nd.Proposal()
		if cn, ok := nd.(*core.Node); ok {
			res.PrunedLate += cn.Stats().PrunedLate
			res.RBCCompacted += cn.RBCCompacted()
			res.RBCDigestBytes += cn.RBCDigestBytes()
			res.JustificationsRetained += cn.JustificationsRetained()
		}
		if v, ok := nd.Decided(); ok {
			obs.Decisions[id] = []types.Value{v}
			res.Decisions[id] = v
			r := nd.DecidedRound()
			res.Rounds[id] = r
			roundSum += r
			if r > res.MaxRound {
				res.MaxRound = r
			}
		} else {
			res.AllDecided = false
		}
	}
	if len(res.Rounds) > 0 {
		res.MeanRounds = float64(roundSum) / float64(len(res.Rounds))
	}
	if dealer != nil {
		res.DealerRoundsRetained = dealer.RoundsRetained()
	}
	res.Violations = check.Consensus(obs)
	return res, nil
}

// proposalFor derives the i-th correct process's input.
func proposalFor(cfg Config, i int, p types.ProcessID) types.Value {
	switch cfg.Inputs {
	case InputUnanimous1:
		return types.One
	case InputSplit:
		return types.Value(i % 2)
	case InputRandom:
		return types.Value(mixBits(cfg.Seed, int64(p)) & 1)
	default: // InputUnanimous0 and zero value
		return types.Zero
	}
}

// mixBits is a small deterministic mixer for input assignment.
func mixBits(seed, p int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(p)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// splitGroups halves the correct processes (for SplitBrain and partition
// scheduling).
func splitGroups(correct []types.ProcessID) (a, b []types.ProcessID) {
	half := (len(correct) + 1) / 2
	return correct[:half], correct[half:]
}

// buildCorrect constructs a correct node of the configured protocol.
func buildCorrect(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID,
	c coin.Coin, proposal types.Value, rec *trace.Recorder, tele *sim.Telemetry) (node, error) {
	switch cfg.Protocol {
	case ProtocolBracha:
		return core.New(core.Config{
			Me: p, Peers: peers, Spec: spec, Coin: c, Proposal: proposal,
			Recorder:            rec,
			Telemetry:           tele,
			Coded:               cfg.Coded,
			DisableValidation:   cfg.DisableValidation,
			DisableDecideGadget: cfg.DisableDecideGadget,
			DisablePruning:      cfg.DisablePruning,
			Window:              cfg.Window,
			MaxRounds:           cfg.MaxRounds,
		})
	case ProtocolBenOr:
		return baseline.New(baseline.Config{
			Me: p, Peers: peers, Spec: spec, Coin: c, Proposal: proposal,
			Recorder:            rec,
			DisableDecideGadget: cfg.DisableDecideGadget,
			MaxRounds:           cfg.MaxRounds,
		})
	default:
		return nil, fmt.Errorf("%w: protocol %v", ErrBadConfig, cfg.Protocol)
	}
}

// buildAdversary constructs one Byzantine node (nil for silent: absence is
// the behaviour).
func buildAdversary(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID,
	groupA, groupB []types.ProcessID) (sim.Node, error) {
	switch cfg.Adversary {
	case AdvSilent:
		return nil, nil
	case AdvEquivocator:
		if cfg.Protocol == ProtocolBenOr {
			return adversary.NewPlainEquivocator(p, peers), nil
		}
		return &adversary.Equivocator{Me: p, Peers: peers}, nil
	case AdvLiar:
		if cfg.Protocol == ProtocolBenOr {
			return adversary.NewPlainEquivocator(p, peers), nil
		}
		return adversary.NewLiar(core.Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:     coin.NewLocal(cfg.Seed + 7777*int64(p)),
			Proposal: types.Zero,
		})
	case AdvDecideForger:
		return &adversary.DecideForger{Me: p, Peers: peers, V: types.Value(int(p) % 2)}, nil
	case AdvSplitBrain:
		return adversary.NewSplitBrain(p, peers, spec, groupA, groupB, cfg.Seed+3)
	case AdvCrashMidway:
		if cfg.Protocol == ProtocolBenOr {
			return nil, nil // Ben-Or baseline: model as silent
		}
		// Crash somewhere inside the first round's traffic, varying by
		// seed and process so colluders die at different points.
		budget := 10 + int((cfg.Seed+int64(p)*7)%40)
		return adversary.NewCrashAfter(core.Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:     coin.NewLocal(cfg.Seed + 991*int64(p)),
			Proposal: types.Value(int(p) % 2),
		}, budget)
	default:
		return nil, fmt.Errorf("%w: adversary %v", ErrBadConfig, cfg.Adversary)
	}
}

// buildScheduler assembles the configured scheduler, resolving the family's
// parameters through cfg.Sched (zero fields = historical defaults).
func buildScheduler(cfg Config, byz, groupA, groupB []types.ProcessID) sim.Scheduler {
	sp := cfg.Sched.withDefaults()
	uniform := sim.UniformDelay{Min: 1, Max: 20}
	base := sim.Scheduler(uniform)
	// withRush composes rules with rushed Byzantine traffic (the strongest
	// position for the adversary's own messages).
	withRush := func(b sim.Scheduler, rules ...sim.Rule) sim.Scheduler {
		if len(byz) > 0 {
			rules = append(rules, sim.RushFrom(byz...))
		}
		if len(rules) == 0 {
			return b
		}
		return sim.Compose{Base: b, Rules: rules}
	}
	switch cfg.Scheduler {
	case SchedFIFO:
		return sim.NewFIFODelay(1, 20)
	case SchedRushByz:
		return sim.Compose{Base: base, Rules: []sim.Rule{sim.RushFrom(byz...)}}
	case SchedPartition:
		var links [][2]types.ProcessID
		for _, a := range groupA {
			for _, b := range groupB {
				links = append(links, [2]types.ProcessID{a, b}, [2]types.ProcessID{b, a})
			}
		}
		return withRush(base, sim.DelayLinks(sp.PartitionLag, links...))
	case SchedReorder:
		return withRush(sim.ReorderDelay{Span: sp.ReorderSpan})
	case SchedSplitHeal:
		return withRush(base, sim.HealPartition(sp.HealTime, groupA, groupB))
	case SchedLossy:
		return withRush(sim.LossyDelay{
			Base:          uniform,
			LossPct:       sp.LossPct,
			DupPct:        sp.DupPct,
			RetransmitLag: sp.RetransmitLag,
		})
	case SchedTopology:
		return withRush(sim.TopologyDelay{
			Base:   uniform,
			N:      cfg.N,
			Degree: sp.TopoDegree,
			HopLag: sp.HopLag,
		})
	case SchedAdaptive:
		return sim.NewAdaptive(uniform, sp.TargetLag, false, byz)
	case SchedAdaptiveRush:
		return sim.NewAdaptive(uniform, sp.TargetLag, true, byz)
	case SchedRejoin:
		// The victim is the last correct process: unreachable until the
		// rejoin time, then flooded with everything it missed. Rules apply
		// in order, so the rush must come first — otherwise it would
		// override the hold for Byzantine traffic and pierce the outage
		// (rushed messages instead land at exactly the rejoin time).
		victims := groupB
		if len(victims) == 0 {
			victims = groupA
		}
		if len(victims) == 0 {
			return base
		}
		rules := []sim.Rule{sim.HoldUntil(sp.RejoinTime, victims[len(victims)-1])}
		if len(byz) > 0 {
			rules = append([]sim.Rule{sim.RushFrom(byz...)}, rules...)
		}
		return sim.Compose{Base: base, Rules: rules}
	case SchedStraggler:
		// Every link into the straggler (the last correct process,
		// including its loopback) carries a constant extra lag worth
		// several rounds, so it processes the protocol a fixed distance
		// behind everyone else for the whole run. Combined with a spare
		// fault slot (the pack's quorums never need the straggler) and
		// the non-halting formulation (the decided pack keeps starting
		// rounds until the straggler decides too), the pack stays rounds
		// ahead — and every message the straggler emits reaches peers
		// that pruned its round long ago, exercising the late-drop path
		// continuously. Only inbound traffic lags: the straggler's own
		// emissions travel normally, which is exactly what makes them
		// stale on arrival.
		victims := groupB
		if len(victims) == 0 {
			victims = groupA
		}
		if len(victims) == 0 {
			return base
		}
		straggler := victims[len(victims)-1]
		links := make([][2]types.ProcessID, 0, cfg.N)
		for _, p := range types.Processes(cfg.N) {
			links = append(links, [2]types.ProcessID{p, straggler})
		}
		return withRush(base, sim.DelayLinks(sp.StragglerLag, links...))
	default: // SchedUniform and zero value
		return base
	}
}

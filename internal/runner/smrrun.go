package runner

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/adversary"
	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file is the replicated-log (SMR) workload harness: the run mode
// behind the checkpoint experiments (E12), the `bench -smr` CLI, and the
// restart-catchup scenario. Where Run drives one consensus instance to a
// decision, RunSMR drives a whole log — n replicas committing Slots slots,
// optionally checkpointing every CheckpointEvery slots, optionally with one
// replica killed mid-run and revived with empty state (sim.Restart), forced
// to catch up through ckpt state transfer.
//
// The harness observes every replica's commits as they happen, through the
// smr.Config.OnCommit hook (one call per committed slot, nothing per
// delivery), maintaining:
//
//   - a canonical entry per slot (first observer wins) against which every
//     other replica's entries are checked — Mismatches counts cross-replica
//     log disagreements, the SMR form of an agreement violation;
//   - the chained log digest and a shadow state machine for the reference
//     replica (p1), captured exactly at the Slots boundary — the run-to-run
//     comparison point that must be bitwise identical whatever the
//     checkpoint interval, which CI enforces via `bench -smr`. A reference
//     replica that jumps its frontier (state-transfer install, durable
//     boot) re-seeds the chain from the certificate at the cut.
//
// Replicas run unbounded (MaxSlots 0) and the harness stops the network
// once every live replica's frontier reached Slots (and, in restart runs,
// the revived victim has committed MinCommits entries itself) — the
// non-halting formulation, so peers keep serving state transfer while the
// victim catches up.

// SMRConfig describes one replicated-log workload run.
type SMRConfig struct {
	N int // total processes
	F int // fault bound
	// Slots is the commit frontier every live replica must reach (> 0).
	Slots int
	// Commands preloads this many "set" commands per rotation member
	// (further slots commit noops).
	Commands int
	// CommandBytes, when > 0, pads every preloaded command to at least this
	// many bytes (a deterministic filler in the value field). The bandwidth
	// experiments (E14) use it to sweep dissemination body sizes; the default
	// short commands exercise the protocol, not the wire.
	CommandBytes int
	// Coded switches candidate dissemination to erasure-coded reliable
	// broadcast (smr.Config.Coded). The committed log, and every digest in
	// this result, is bitwise identical to the uncoded run of the same
	// (config, seed); WireBytes shows what changes.
	Coded bool
	// Batch caps how many queued commands one proposing turn bundles into a
	// single dissemination body (0 or 1 = one command per slot; see
	// smr.Config.Batch). A slot then unbatches into up to Batch committed
	// entries.
	Batch int
	// Depth is the dissemination pipeline depth (0 or 1 = off; see
	// smr.Config.Depth): proposing turns up to Depth-1 slots past the
	// agreement frontier disseminate early.
	Depth int
	// CheckpointEvery is the checkpoint cadence in slots (0 = off).
	CheckpointEvery int
	// Window is the per-round retention window of the inner consensus
	// instances (0 = core default).
	Window int
	// Coin selects the per-slot coin: CoinLocal, CoinIdeal, or CoinCommon
	// (per-slot dealers via coin.DealerSet, released below certified cuts).
	Coin CoinKind
	// Seed drives the run; everything is a pure function of (config, seed).
	Seed int64
	// Crashed trailing processes are absent for the whole run (silent).
	Crashed int
	// Restart, when set, wraps the last live replica in a deterministic
	// kill/revive (requires checkpointing: a restarted replica's in-flight
	// messages are gone, so only state transfer can bring it back).
	Restart *SMRRestart
	// SpareRotation excludes the last live replica from the proposer
	// rotation without restarting it — the control configuration for the
	// kill/restart determinism property, whose committed log must be
	// comparable (same proposers, same commands) to a Restart run's.
	SpareRotation bool
	// Attack, when nonzero, turns Byzantine live replicas into
	// checkpoint-plane attackers of the given kind (adversary.CkptByzantine;
	// requires CheckpointEvery > 0). Attackers run genuine replicas
	// underneath — they stay in the proposer rotation and commit honestly —
	// so an attack run's committed log, and therefore its digests, must
	// match the attack-free control run's bitwise.
	Attack adversary.CkptAttack
	// Byzantine is how many attackers run the Attack (default 1 when Attack
	// is set; at most F). They occupy the live slots right after the
	// reference replica, early in every catching-up replica's responder
	// rotation — so transfer requests actually reach them.
	Byzantine int
	// Sched selects the delivery schedule the attack composes with: 0 or
	// SchedUniform (fair uniform delays), SchedReorder, SchedStraggler (the
	// second live replica's links slowed until it lags past the checkpoint
	// window), or SchedSplitHeal (half/half partition healed at healTime).
	Sched SchedulerKind
	// CkptDir, when set, gives every honest replica a durable snapshot
	// store at <dir>/replica-<id>.ckpt (requires CheckpointEvery > 0):
	// replicas persist their latest certified checkpoint and, on a later
	// run over the same directory, boot from it — the whole-cluster
	// power-cycle recovery path.
	CkptDir string
	// MaxPendingCuts overrides the checkpoint tracker's pending-cut cap
	// (0 = ckpt.DefaultMaxPendingCuts).
	MaxPendingCuts int
	// MaxDeliveries bounds the run (0 = a Slots- and n-scaled default).
	MaxDeliveries int
	// Telemetry attaches the deterministic telemetry plane (shared by every
	// replica): per-kind wire counters and latency histograms plus the
	// checkpoint-plane phase histograms (vote→certify, request→install),
	// surfaced as SMRResult.Telemetry.
	Telemetry bool
}

// smrStragglerLag is the extra delay on every link touching the SMR
// straggler — enough, against 1..20 base delays, to drop it a checkpoint
// interval behind the frontier under load (the straggler-prune pressure
// schedule) without pushing the run into its delivery budget.
const smrStragglerLag sim.Time = 60

// scheduler builds the sim scheduler for this config. The straggler is the
// first honest live replica after the reference and the attackers (never
// the reference, never an attacker — the point is an *honest* replica
// lagging behind the checkpoint window), slowed on every link; the
// partition splits the live replicas in half and heals at healTime, after
// which the held cross-half traffic arrives in a burst.
func (cfg SMRConfig) scheduler(live []types.ProcessID) sim.Scheduler {
	base := sim.UniformDelay{Min: 1, Max: 20}
	switch cfg.Sched {
	case SchedReorder:
		return sim.ReorderDelay{Span: 24}
	case SchedStraggler:
		straggler := live[(1+cfg.Byzantine)%len(live)]
		var links [][2]types.ProcessID
		for _, q := range live {
			if q != straggler {
				links = append(links, [2]types.ProcessID{straggler, q}, [2]types.ProcessID{q, straggler})
			}
		}
		return sim.Compose{Base: base, Rules: []sim.Rule{sim.DelayLinks(smrStragglerLag, links...)}}
	case SchedSplitHeal:
		half := len(live) / 2
		return sim.Compose{Base: base, Rules: []sim.Rule{
			sim.HealPartition(healTime, live[:half], live[half:]),
		}}
	default:
		return base
	}
}

// SMRRestart is the deterministic kill/revive schedule of the victim (the
// last live, non-proposing replica).
type SMRRestart struct {
	// CrashAfter is how many deliveries the victim processes before dying.
	CrashAfter int
	// ReviveAfter is how many further deliveries evaporate before a fresh
	// replica (empty log, empty state) takes over.
	ReviveAfter int
	// MinCommits is how many entries the revived victim must commit itself
	// before the run may stop (0 = 3): "catches up and commits subsequent
	// slots", made a stop condition.
	MinCommits int
}

// SMRResult is what one replicated-log run produced.
type SMRResult struct {
	Config SMRConfig

	// LogDigest and StateDigest are the reference replica's chained log
	// digest and shadow-machine state digest at exactly the Slots boundary
	// — identical across checkpoint intervals, worker counts, and machines
	// for a given (config, seed).
	LogDigest   uint64
	StateDigest uint64
	// FullStream reports that the reference replica's entry stream was
	// observed gap-free from slot 0 (always true in practice; a false value
	// voids the digests).
	FullStream bool
	// Mismatches counts cross-replica committed-entry disagreements (the
	// agreement check; must be 0).
	Mismatches int
	// Slots observed committed per replica index, and the max certified cut.
	Committed    []int
	CertifiedCut int
	// Entries counts the distinct committed entries observed in [0, Slots) —
	// equal to Slots without batching, up to Batch× it with batching (the
	// throughput numerator).
	Entries int
	// SubmitDropped sums the commands the replicas' bounded submit queues
	// rejected (must be 0 in a well-sized run; see smr.Replica.Dropped).
	SubmitDropped int
	// DuplicateCommands counts non-noop commands observed at more than one
	// log position (must be 0: a command is consumed exactly once, even
	// across state-transfer jumps).
	DuplicateCommands int

	// Robustness telemetry, summed over the replicas alive at the end of
	// the run (attackers report their honest inner replica's counters).
	TotalInstalls         int // state transfers installed cluster-wide
	TransferRetries       int // reactive re-requests after stale/unverifiable responses
	StaleResponses        int // full transfer responses at or below the receiver's frontier
	UnverifiableResponses int // certificate payloads that failed verification
	StoreErrors           int // durable-store failures survived (rejected loads, failed saves)
	SuffixDivergence      int // re-committed entries contradicting a durable log suffix (must be 0)
	PendingCutsMax        int // largest per-replica pending-cut table at the end (cap-bounded)
	RestoredCuts          int // replicas that booted from a durable record

	// Victim telemetry (Restart runs).
	//
	// VictimDown reports the victim was still dead when the run ended (its
	// revival never happened, or its revived instance never came back up):
	// every other Victim* field is then zero because there was no live
	// replica to read — not because catch-up failed while live. Together
	// with Exhausted it separates "the delivery budget ran out mid-outage"
	// from "the victim revived and failed to catch up", which a zero
	// Transfers alone conflates.
	VictimDown      bool
	VictimID        types.ProcessID
	VictimRetries   int // the victim's own reactive re-requests
	Transfers       int // state transfers the victim installed
	VictimBase      int // the victim's final log base (its last installed cut)
	VictimCommitted int // entries the revived victim committed itself
	// VictimSlot, VictimLogDigest, and VictimStateDigest capture the
	// victim's final frontier and its full-history log/state digests at it
	// — comparable bitwise against an uninterrupted run stopped at the same
	// frontier (the kill/restart determinism property).
	VictimSlot        int
	VictimLogDigest   uint64
	VictimStateDigest uint64

	// Residue at the end of the run, summed across live replicas: the
	// memory the checkpoint subsystem exists to bound (E12).
	RBCDigestBytes int // dissemination digest-record bytes
	RBCRecords     int // dissemination digest records
	RBCLive        int // live dissemination instances
	LogRetained    int // committed entries still held
	DealerSlots    int // per-slot dealers retained (CoinCommon)
	DealerRounds   int // dealt rounds retained across them (CoinCommon)

	Messages   int
	Deliveries int
	EndTime    sim.Time
	Exhausted  bool
	// WireBytes is the wire.MessageSize total over every sent message — the
	// run's bandwidth under the real codec (the E14 measurement surface).
	WireBytes int64
	// Dropped counts messages the scheduler dropped or that expired when
	// their destination finished; Spoofed counts sends rejected for a
	// forged From (see sim.Stats).
	Dropped int
	Spoofed int
	// Telemetry holds the telemetry sink when Config.Telemetry was set.
	Telemetry *sim.Telemetry
}

// smrObserver tracks one live replica for the stop condition and the final
// tallies.
type smrObserver struct {
	rep     *smr.Replica
	wrapper *sim.Restart // non-nil for the victim
}

// current returns the live replica behind this observer: nil while the
// victim is down (the pre-crash instance is discarded state, not a replica
// to read), the fresh instance after revival.
func (o *smrObserver) current() *smr.Replica {
	if o.wrapper != nil && o.wrapper.Down() {
		return nil
	}
	return o.rep
}

// RunSMR executes one replicated-log workload.
func RunSMR(cfg SMRConfig) (*SMRResult, error) {
	spec, err := quorum.New(cfg.N, cfg.F)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("%w: SMR run needs Slots > 0", ErrBadConfig)
	}
	if cfg.Batch < 0 || cfg.Depth < 0 || cfg.Window < 0 {
		return nil, fmt.Errorf("%w: negative batch (%d), pipeline depth (%d) or window (%d)", ErrBadConfig, cfg.Batch, cfg.Depth, cfg.Window)
	}
	if cfg.CommandBytes < 0 || cfg.CommandBytes > wire.MaxBatchBytes {
		return nil, fmt.Errorf("%w: CommandBytes %d outside [0, %d]", ErrBadConfig, cfg.CommandBytes, wire.MaxBatchBytes)
	}
	if cfg.Restart != nil && cfg.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("%w: a restarted replica can only catch up via checkpoint state transfer; set CheckpointEvery", ErrBadConfig)
	}
	if (cfg.Attack != 0 || cfg.CkptDir != "") && cfg.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("%w: checkpoint attacks and durable stores need CheckpointEvery", ErrBadConfig)
	}
	if cfg.Attack != 0 && cfg.Byzantine == 0 {
		cfg.Byzantine = 1
	}
	if cfg.Attack == 0 {
		cfg.Byzantine = 0
	}
	if cfg.Byzantine > cfg.F {
		return nil, fmt.Errorf("%w: %d attackers exceed the fault bound f=%d", ErrBadConfig, cfg.Byzantine, cfg.F)
	}
	switch cfg.Sched {
	case 0, SchedUniform, SchedReorder, SchedStraggler, SchedSplitHeal:
	default:
		return nil, fmt.Errorf("%w: SMR runs support uniform/reorder/straggler/split-heal schedules, not %v", ErrBadConfig, cfg.Sched)
	}
	if cfg.Coin == 0 {
		cfg.Coin = CoinLocal
	}
	if cfg.Crashed < 0 || cfg.N-cfg.Crashed < 2 {
		return nil, fmt.Errorf("%w: %d live replicas", ErrBadConfig, cfg.N-cfg.Crashed)
	}
	peers := types.Processes(cfg.N)
	live := peers[:cfg.N-cfg.Crashed]
	rotation := live
	var victim types.ProcessID
	if cfg.Restart != nil {
		victim = live[len(live)-1]
	}
	if cfg.Restart != nil || cfg.SpareRotation {
		rotation = live[:len(live)-1] // the victim must not hold up slots
	}
	// Attackers occupy the live slots right after the reference replica: the
	// reference (first live) stays honest, so the digest chain reads an
	// honest log; the victim (last live) stays honest, so catch-up is tested
	// against the attack rather than run by it; and sitting early in the
	// responder rotation means a catching-up replica's transfer requests
	// actually reach the attackers instead of always being rescued by honest
	// peers first.
	attacker := make([]bool, len(live))
	if cfg.Byzantine > 0 {
		hi := len(live)
		if cfg.Restart != nil || cfg.SpareRotation {
			hi--
		}
		if 1+cfg.Byzantine > hi {
			return nil, fmt.Errorf("%w: %d attackers leave no honest reference replica", ErrBadConfig, cfg.Byzantine)
		}
		for k := 1; k <= cfg.Byzantine; k++ {
			attacker[k] = true
		}
	}

	budget := cfg.MaxDeliveries
	if budget <= 0 {
		// Each slot runs a full ACS — n parallel broadcasts of O(n²)
		// deliveries each — so a healthy run costs ~n³ deliveries per slot
		// (measured ~7·n³ at n=16..64). Budget roughly twice that, floored
		// at the sim default so small-n runs keep generous headroom; a run
		// that exhausts it has genuinely lost liveness.
		//
		// Calibration is per *slot*, deliberately not per committed entry:
		// batching commits up to Batch entries per slot at the same ~7·n³
		// delivery cost (the per-entry cost falls to ~7·n³/Batch — that is
		// the whole throughput win), so scaling the budget by entries would
		// overshoot by Batch×. Pipelining does add traffic past the stop
		// frontier — up to Depth-1 proposing turns' dissemination is in
		// flight when slot Slots decides — so those slots get headroom.
		slots := cfg.Slots
		if cfg.Depth > 1 {
			slots += cfg.Depth - 1
		}
		budget = 16 * slots * cfg.N * cfg.N * cfg.N
		if budget < sim.DefaultMaxDeliveries {
			budget = sim.DefaultMaxDeliveries
		}
	}
	var tele *sim.Telemetry
	if cfg.Telemetry {
		tele = sim.NewTelemetry()
	}
	net, err := sim.New(sim.Config{
		Scheduler:     cfg.scheduler(live),
		Seed:          cfg.Seed,
		MaxDeliveries: budget,
		Telemetry:     tele,
		Sizer:         wire.MessageSize,
	})
	if err != nil {
		return nil, err
	}

	var dealers *coin.DealerSet
	if cfg.Coin == CoinCommon {
		dealers = coin.NewDealerSet(spec, cfg.Seed+1)
	}
	newCoin := func(p types.ProcessID) func(int) coin.Coin {
		switch cfg.Coin {
		case CoinIdeal:
			return func(slot int) coin.Coin { return coin.NewIdeal(cfg.Seed + int64(slot)) }
		case CoinCommon:
			return func(slot int) coin.Coin { return coin.NewCommon(p, peers, dealers.For(slot)) }
		default: // CoinLocal
			return func(slot int) coin.Coin {
				return coin.NewLocal(cfg.Seed + int64(p)*1000 + int64(slot))
			}
		}
	}
	secret := []byte(fmt.Sprintf("smr-ckpt-%d", cfg.Seed))

	observers := make([]*smrObserver, len(live))
	machines := make([]*smr.KVMachine, len(live)) // each replica's live machine
	cuts := make([]int, len(live))                // per-replica certified cut (monotone)
	releaseDealers := func() {
		if dealers == nil {
			return
		}
		low := cuts[0]
		for _, c := range cuts[1:] {
			if c < low {
				low = c
			}
		}
		// The dealer set is cluster-shared: release by the minimum certified
		// cut across replicas, the same low-watermark shape as round-level
		// dealer pruning (and re-creation below the floor is deterministic
		// anyway; see coin.DealerSet).
		dealers.ReleaseBelow(low)
	}

	// canonical holds the first-observed committed entry per log position;
	// batching commits several entries per slot, so positions are keyed by
	// (slot, index within the slot's batch).
	type entryKey struct{ slot, index int }
	canonical := make(map[entryKey]smr.Entry, cfg.Slots)
	mismatches := 0
	// The reference replica's stream: refNext is the next slot it has not
	// committed, refCount the slots fully folded into its chain, and
	// refGapped voids the digests (a frontier jump no certificate explains).
	refNext, refCount, refGapped := 0, 0, false
	refDigest := ckpt.InitialLogDigest
	refMachine := smr.NewKVMachine()
	var digestAt, stateAt uint64
	capture := func() {
		digestAt = refDigest
		stateAt = ckpt.Digest(refMachine.Snapshot())
	}
	victimCommitted := 0

	// onCommit observes replica i's committed slots: every entry is checked
	// against the canonical log, the reference replica's slots fold into its
	// chain, and the revived victim's entries count toward its catch-up.
	onCommit := func(i int) func(int, []smr.Entry) {
		return func(slot int, ents []smr.Entry) {
			for _, e := range ents {
				k := entryKey{e.Slot, e.Index}
				if have, ok := canonical[k]; !ok {
					canonical[k] = e
				} else if have != e {
					mismatches++
				}
			}
			if w := observers[i].wrapper; w != nil && w.Restarted() {
				victimCommitted += len(ents)
			}
			if i != 0 {
				return
			}
			if slot > refNext {
				refGapped = true
			}
			refNext = slot + 1
			if refGapped || slot < refCount {
				return
			}
			for _, e := range ents {
				refDigest = ckpt.FoldEntry(refDigest, e.Slot, e.Proposer, e.Command)
				if e.Command != "" && e.Command != smr.Noop {
					refMachine.Apply(e.Command)
				}
			}
			// Capture the reference digests exactly when the fold frontier
			// lands on the Slots boundary, before any later slot folds in.
			refCount = slot + 1
			if refCount == cfg.Slots {
				capture()
			}
		}
	}
	// jump handles the reference replica's frontier jumping to cut past the
	// slots it committed under observation (a state-transfer install, or a
	// boot from its durable record): the chain re-seeds from the certificate
	// at the cut — its LogDigest is the full-history digest there and the
	// machine was just restored to the certified state — and is voided only
	// if no certificate explains the jump.
	jump := func(cut int) {
		if !refGapped && refCount < cfg.Slots {
			cert, ok := observers[0].rep.LatestCert()
			if ok && cert.Slot == cut && cut <= cfg.Slots &&
				refMachine.Restore(machines[0].Snapshot()) == nil {
				refDigest = cert.LogDigest
				refCount = cut
				if refCount == cfg.Slots {
					capture()
				}
			} else {
				refGapped = true
			}
		}
		refNext = cut
	}

	buildCfg := func(i int, p types.ProcessID) smr.Config {
		machines[i] = smr.NewKVMachine()
		rcfg := smr.Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin:  newCoin(p),
			Rotation: rotation,
			Machine:  machines[i],
			Window:   cfg.Window,
			Batch:    cfg.Batch,
			Depth:    cfg.Depth,
			Coded:    cfg.Coded,

			OnCommit:  onCommit(i),
			Telemetry: tele,
		}
		if cfg.Commands > smr.DefaultQueueLimit {
			// The harness preloads every command up front; keep the queue
			// bounded but sized to the workload so a well-formed run never
			// drops (drops would surface in SubmitDropped).
			rcfg.QueueLimit = cfg.Commands
		}
		if cfg.CheckpointEvery > 0 {
			rcfg.CheckpointEvery = cfg.CheckpointEvery
			rcfg.CheckpointSecret = secret
			rcfg.MaxPendingCuts = cfg.MaxPendingCuts
			if cfg.CkptDir != "" {
				rcfg.Store = ckpt.NewStore(filepath.Join(cfg.CkptDir, fmt.Sprintf("replica-%d.ckpt", p)))
			}
			rcfg.OnCertified = func(cut int) {
				if i == 0 && cut > refNext {
					jump(cut)
				}
				if cut > cuts[i] {
					cuts[i] = cut
					releaseDealers()
				}
			}
		}
		return rcfg
	}
	build := func(i int, p types.ProcessID) (*smr.Replica, error) {
		return smr.New(buildCfg(i, p))
	}

	commandsFor := func(p types.ProcessID) []string {
		cmds := make([]string, cfg.Commands)
		for c := range cmds {
			cmds[c] = fmt.Sprintf("set k%d-%d v%d-%d", p, c, p, c)
			if pad := cfg.CommandBytes - len(cmds[c]); pad > 0 {
				// Deterministic filler in the value field: the command still
				// parses as a KV set, just with a body-sized value.
				cmds[c] += strings.Repeat("x", pad)
			}
		}
		return cmds
	}

	for i, p := range live {
		i, p := i, p
		if p == victim && cfg.Restart != nil {
			observers[i] = &smrObserver{}
			wrapper := sim.NewRestart(func() sim.Node {
				rep, err := build(i, p)
				if err != nil {
					// The identical config already built every other
					// replica; a failure here is a harness bug, not input.
					panic(fmt.Sprintf("runner: building victim %v: %v", p, err))
				}
				observers[i].rep = rep // the initial instance, then the revived one
				return rep
			}, cfg.Restart.CrashAfter, cfg.Restart.ReviveAfter)
			observers[i].wrapper = wrapper
			if err := net.Add(wrapper); err != nil {
				return nil, err
			}
			continue
		}
		if attacker[i] {
			rcfg := buildCfg(i, p)
			// Attackers never persist: their honest inner replica exists to
			// keep the cluster comparable, not to exercise the store.
			rcfg.Store = nil
			byz, err := adversary.NewCkptByzantine(cfg.Attack, rcfg)
			if err != nil {
				return nil, err
			}
			// The inner replica commits honestly, so its log joins the
			// cross-replica agreement check like any other.
			observers[i] = &smrObserver{rep: byz.Inner()}
			for _, cmd := range commandsFor(p) {
				byz.Inner().Submit(cmd)
			}
			if err := net.Add(byz); err != nil {
				return nil, err
			}
			continue
		}
		rep, err := build(i, p)
		if err != nil {
			return nil, err
		}
		observers[i] = &smrObserver{rep: rep}
		cmds := commandsFor(p)
		if b := rep.Base(); b > 0 {
			// The replica booted from its durable record and resumes at the
			// cut: the reference digest chain re-seeds from the restored
			// certificate and machine, and the command queue drops the
			// proposals the pre-crash self already consumed (so re-proposed
			// slots carry the same commands an uninterrupted run would).
			if i == 0 {
				jump(b)
			}
			// Each pre-cut proposing turn consumed a full take: one command
			// unbatched, up to Batch with batching (the harness's short
			// commands never hit the batch byte caps, so the take is exactly
			// min(Batch, remaining) — mirroring smr's proposalTake).
			take := 1
			if cfg.Batch > 1 {
				take = cfg.Batch
			}
			consumed := 0
			for s := 0; s < b; s++ {
				if rotation[s%len(rotation)] == p {
					consumed += take
				}
			}
			if consumed > len(cmds) {
				consumed = len(cmds)
			}
			cmds = cmds[consumed:]
		}
		for _, cmd := range cmds {
			rep.Submit(cmd)
		}
		if err := net.Add(rep); err != nil {
			return nil, err
		}
	}

	minCommits := 0
	if cfg.Restart != nil {
		minCommits = cfg.Restart.MinCommits
		if minCommits <= 0 {
			minCommits = 3
		}
	}
	stop := func() bool {
		if victimCommitted < minCommits {
			return false
		}
		for _, o := range observers {
			if rep := o.current(); rep == nil || rep.Slot() < cfg.Slots {
				return false
			}
		}
		return true
	}
	stats, err := net.Run(stop)
	if err != nil {
		return nil, err
	}

	res := &SMRResult{
		Config:      cfg,
		LogDigest:   digestAt,
		StateDigest: stateAt,
		FullStream:  !refGapped && refCount >= cfg.Slots,
		Mismatches:  mismatches,
		Committed:   make([]int, len(live)),
		VictimID:    victim,
		Messages:    stats.Sent,
		Deliveries:  stats.Delivered,
		EndTime:     stats.End,
		Exhausted:   stats.Exhausted,
		WireBytes:   stats.Bytes,
		Dropped:     stats.Dropped,
		Spoofed:     stats.Spoofed,
		Telemetry:   tele,
	}
	for i, o := range observers {
		rep := o.current()
		if rep == nil {
			// The victim was still down at the end (typically the budget ran
			// out mid-outage): its telemetry stays zero rather than reporting
			// the discarded pre-crash instance's state as final, and
			// VictimDown records *why* those fields are zero — Exhausted then
			// tells budget starvation apart from a revival that never came.
			res.VictimDown = true
			continue
		}
		res.Committed[i] = rep.Slot()
		if cut := rep.CertifiedCut(); cut > res.CertifiedCut {
			res.CertifiedCut = cut
		}
		res.SubmitDropped += rep.Dropped()
		res.RBCDigestBytes += rep.RBCDigestBytes()
		res.RBCRecords += rep.RBCCompacted()
		res.RBCLive += rep.RBCLiveInstances()
		res.LogRetained += rep.LogLen()
		res.TotalInstalls += rep.Transfers()
		res.TransferRetries += rep.TransferRetries()
		res.StaleResponses += rep.StaleResponses()
		res.UnverifiableResponses += rep.UnverifiableResponses()
		res.StoreErrors += rep.StoreErrors()
		res.SuffixDivergence += rep.SuffixDivergence()
		if pc := rep.PendingCuts(); pc > res.PendingCutsMax {
			res.PendingCutsMax = pc
		}
		if rep.RestoredCut() > 0 {
			res.RestoredCuts++
		}
		if o.wrapper != nil {
			res.Transfers = rep.Transfers()
			res.VictimRetries = rep.TransferRetries()
			res.VictimBase = rep.Base()
			res.VictimSlot = rep.Slot()
			res.VictimLogDigest = rep.LogDigest()
			res.VictimStateDigest, _ = rep.StateDigest()
		}
	}
	res.VictimCommitted = victimCommitted
	// Throughput numerator and the exactly-once check: count the canonical
	// entries inside the measured frontier, and flag any non-noop command
	// observed at two log positions (a consumed command re-proposed — the
	// install-jump bug class — or a duplicate submission).
	seenCmd := make(map[string]entryKey, len(canonical))
	for k, e := range canonical {
		if k.slot >= cfg.Slots {
			continue
		}
		res.Entries++
		if e.Command == "" || e.Command == smr.Noop {
			continue
		}
		if _, dup := seenCmd[e.Command]; dup {
			res.DuplicateCommands++
		} else {
			seenCmd[e.Command] = k
		}
	}
	if dealers != nil {
		res.DealerSlots = dealers.DealersRetained()
		res.DealerRounds = dealers.RoundsRetained()
	}
	return res, nil
}

// RestartCatchupSpec is the canonical restart-catchup scenario: n replicas
// checkpointing every `every` slots, the last live replica killed after a
// third of the expected traffic and revived an interval's worth of
// deliveries later — long past its window, with everything sent in between
// gone — so only certificate-verified state transfer can bring it back.
// The stop condition demands the victim then commits slots itself.
func RestartCatchupSpec(n, slots, every int, seed int64) SMRConfig {
	return SMRConfig{
		N: n, F: quorum.MaxByzantine(n),
		Slots:           slots,
		Commands:        4,
		CheckpointEvery: every,
		Coin:            CoinLocal,
		Seed:            seed,
		Restart: &SMRRestart{
			CrashAfter:  80 * n,
			ReviveAfter: 160 * n,
		},
	}
}

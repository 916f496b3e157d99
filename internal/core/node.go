// Package core implements the primary contribution of the PODC-84 paper:
// Bracha's asynchronous randomized Byzantine consensus with optimal
// resilience f < n/3. A Node is a deterministic state machine (sim.Node
// compatible) that composes the paper's three pieces:
//
//   - every step message is disseminated by reliable broadcast
//     (internal/rbc), so Byzantine processes cannot equivocate;
//
//   - received step messages count toward the n−f waits only once
//     *justified* (internal/validate), so Byzantine processes cannot send
//     implausible values;
//
//   - rounds of three steps drive values together, with a coin
//     (internal/coin) breaking symmetry:
//
//     step 1: broadcast value; await n−f; value ← majority.
//     step 2: broadcast value; await n−f; if some v holds > n/2, value ← D(v).
//     step 3: broadcast value; await n−f; if ≥ 2f+1 D(v): decide v;
//     else if ≥ f+1 D(v): value ← v; else value ← coin.
//
// Bracha's protocol decides but never halts (processes keep echoing forever
// so laggards can finish). For practical termination this implementation
// adds the standard decide-amplification gadget, a direct reuse of the
// paper's own READY amplification idea: a deciding process broadcasts
// DECIDE(v); any process relays on f+1 matching DECIDEs and halts on 2f+1.
// The gadget is configurable off (ablation A2) to measure the pure protocol.
package core

import (
	"errors"
	"fmt"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/validate"
	"repro/internal/wire"
)

// DefaultMaxRounds bounds how many rounds a node will start before stalling
// (a stalled node is detectable as a termination violation; the simulator's
// delivery budget is the usual backstop long before this).
const DefaultMaxRounds = 1 << 16

// Config configures a consensus node.
type Config struct {
	// Me is this process; Peers lists all processes including Me.
	Me    types.ProcessID
	Peers []types.ProcessID
	// Spec is the failure assumption (n = len(Peers), f tolerated).
	Spec quorum.Spec
	// Coin supplies the step-3 randomness. Required.
	Coin coin.Coin
	// Proposal is this process's input bit.
	Proposal types.Value
	// Recorder, when enabled, receives ROUND/COIN/DECIDE/HALT/RBC events.
	Recorder *trace.Recorder
	// Instance namespaces this consensus instance when several share one
	// network (replicated-log slots): reliable-broadcast tags carry it as
	// Tag.Seq and DECIDE gadget messages carry it explicitly, so traffic
	// from other instances is ignored rather than miscounted. Concurrent
	// instances using the common coin additionally need distinct dealers
	// (share MACs are bound to a dealer secret, so foreign shares are
	// rejected, but reusing one dealer would reuse the same coin values).
	Instance int
	// Coded switches step dissemination to erasure-coded reliable broadcast
	// (AVID-style, see internal/rbc: per-peer fragments plus a SHA-256
	// cross-checksum instead of full-body echoes). Delivered bodies — and
	// therefore every decision, digest, and trace event above the transport —
	// are identical to the uncoded mode; only the wire format changes.
	Coded bool
	// DisableValidation turns off message justification (ablation A1).
	DisableValidation bool
	// DisableDecideGadget turns off DECIDE amplification (ablation A2):
	// the node then decides but never halts, as in the paper's original
	// formulation.
	DisableDecideGadget bool
	// DisablePruning turns off per-round state pruning (accepted lists,
	// coin share state, RBC instance compaction, and the validator's seen
	// window are then retained for the whole execution, as the pre-pruning
	// implementation did). Pruning never changes behaviour — released state
	// is provably dead — so this knob exists only for the E11 memory
	// comparison.
	DisablePruning bool
	// Window is how many rounds of per-round state are retained behind the
	// decided frontier (0 = the default of 1, the tightest window the
	// invariant "state for round r is released once r+1 decides" allows).
	// On entering round r the node releases everything below r−Window:
	// accepted lists, coin share state, terminal RBC instances (compacted
	// to delivered-digest records), and the validator's seen entries.
	// Window never changes behaviour, only retention; ARCHITECTURE.md maps
	// every structure it governs.
	Window int
	// MaxRounds bounds round progression (0 = DefaultMaxRounds).
	MaxRounds int
	// Telemetry, when non-nil, receives the consensus phase marks (round
	// entry → decision) and is forwarded to the RBC layer for its quorum
	// marks. Must be the sink the owning network is charging, whose clock
	// supplies the mark times.
	Telemetry *sim.Telemetry
}

// Stats counts a node's protocol activity.
type Stats struct {
	RoundsStarted int // rounds this node entered (≥ 1 after Start)
	CoinsUsed     int // step-3 coin fallbacks taken
	Adopted       int // step-3 f+1 adoptions taken
	StepsDone     int // step transitions completed
	PrunedLate    int // justified messages dropped for already-pruned rounds
}

// Node is one Bracha consensus process. Not safe for concurrent use: drive
// it from a single loop (the simulator or a transport pump).
type Node struct {
	cfg   Config
	spec  quorum.Spec
	bcast *rbc.Broadcaster
	val   *validate.Validator

	round int
	step  types.Step
	value types.Value
	dFlag bool // value is a decision proposal (between steps 2 and 3)
	// roundEnteredAt marks when the current round began (telemetry clock;
	// meaningless without a sink).
	roundEnteredAt sim.Time

	accepted acceptedTable

	waitingCoin bool
	stalled     bool // hit MaxRounds

	decided      bool
	decision     types.Value
	decidedRound int

	sentDecide  bool
	decideVotes map[types.ProcessID]types.Value
	halted      bool

	// The embedded recycled output buffer (see sim.OutBuffer): once the
	// driver returns a delivered slice through Recycle, later Deliver
	// calls append into its backing array instead of allocating. Drivers
	// that never recycle simply leave the node allocating, as the seed
	// implementation always did.
	sim.OutBuffer

	stats Stats
}

// acceptedTable is the dense round-indexed store of justified step messages
// awaiting their quorum windows — the replacement for the seed's
// map[slot][]validate.Accepted, whose per-append map traffic was the last
// per-delivery allocation in core. Rounds are interned as offsets from a
// moving base: rounds[i] holds round base+i, a (round, step) slot resolves
// to two array indexes, and pruning advances base while recycling the
// released backing arrays through a free list, so steady-state appends
// allocate nothing and a long run's live table stays a fixed-size window.
type acceptedTable struct {
	base   int                   // lowest retained round; rounds below are pruned
	rounds []stepLists           // rounds[i] = round base+i
	free   [][]validate.Accepted // recycled backing arrays from pruned rounds
}

// stepLists holds one round's accepted messages, one list per protocol step.
type stepLists [3][]validate.Accepted

// add appends a justified message to its (round, step) slot. It reports
// false when the round was already pruned — the message is provably dead
// (quorum windows only ever read the current round, which is past it) — or
// lies beyond maxRounds, which the node can never enter.
func (t *acceptedTable) add(round int, step types.Step, acc validate.Accepted, maxRounds int) bool {
	if round < t.base || round > maxRounds {
		return false
	}
	for round-t.base >= len(t.rounds) {
		t.rounds = append(t.rounds, stepLists{})
	}
	list := &t.rounds[round-t.base][step-types.Step1]
	if *list == nil && len(t.free) > 0 {
		*list = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	}
	*list = append(*list, acc)
	return true
}

// window returns the accepted list for a (round, step) slot (nil if empty
// or pruned).
func (t *acceptedTable) window(round int, step types.Step) []validate.Accepted {
	if round < t.base || round-t.base >= len(t.rounds) {
		return nil
	}
	return t.rounds[round-t.base][step-types.Step1]
}

// pruneBelow releases every round before r, recycling the released backing
// arrays for future appends.
func (t *acceptedTable) pruneBelow(r int) {
	if r <= t.base {
		return
	}
	k := r - t.base
	if k > len(t.rounds) {
		k = len(t.rounds)
	}
	for i := 0; i < k; i++ {
		for s := range t.rounds[i] {
			if c := t.rounds[i][s]; cap(c) > 0 {
				t.free = append(t.free, c[:0])
			}
			t.rounds[i][s] = nil
		}
	}
	t.rounds = t.rounds[:copy(t.rounds, t.rounds[k:])]
	t.base = r
}

// retained reports how many accepted messages the table currently holds
// (diagnostics for the pruning tests and the E11 memory experiment).
func (t *acceptedTable) retained() int {
	total := 0
	for i := range t.rounds {
		for s := range t.rounds[i] {
			total += len(t.rounds[i][s])
		}
	}
	return total
}

// Config validation errors.
var (
	ErrNoCoin   = errors.New("core: config requires a coin")
	ErrBadPeers = errors.New("core: peers must include me and match spec size")
)

// New creates a consensus node. Peers must contain Me and have exactly
// Spec.N() entries.
func New(cfg Config) (*Node, error) {
	if cfg.Coin == nil {
		return nil, ErrNoCoin
	}
	if len(cfg.Peers) != cfg.Spec.N() {
		return nil, fmt.Errorf("%w: %d peers for %v", ErrBadPeers, len(cfg.Peers), cfg.Spec)
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Me {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %v not in peers", ErrBadPeers, cfg.Me)
	}
	if !cfg.Proposal.Valid() {
		return nil, fmt.Errorf("core: invalid proposal %d", cfg.Proposal)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("core: negative window %d", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	newVal := validate.New
	if cfg.DisableValidation {
		newVal = validate.NewLax
	}
	newRBC := rbc.New
	if cfg.Coded {
		newRBC = rbc.NewCoded
	}
	bcast := newRBC(cfg.Me, cfg.Peers, cfg.Spec)
	bcast.SetTelemetry(cfg.Telemetry)
	return &Node{
		cfg:         cfg,
		spec:        cfg.Spec,
		bcast:       bcast,
		val:         newVal(cfg.Spec),
		value:       cfg.Proposal,
		accepted:    acceptedTable{base: 1},
		decideVotes: make(map[types.ProcessID]types.Value),
	}, nil
}

var (
	_ sim.Node     = (*Node)(nil)
	_ sim.Recycler = (*Node)(nil)
)

// ID implements sim.Node.
func (n *Node) ID() types.ProcessID { return n.cfg.Me }

// Done implements sim.Node: true once the node halted via the decide gadget.
func (n *Node) Done() bool { return n.halted }

// Start implements sim.Node: enter round 1 and broadcast the proposal.
func (n *Node) Start() []types.Message {
	return n.enterRound(n.Take(), 1)
}

// Deliver implements sim.Node.
func (n *Node) Deliver(m types.Message) []types.Message {
	if n.halted {
		return nil
	}
	switch p := m.Payload.(type) {
	case *types.RBCPayload:
		out := n.onRBC(n.Take(), m.From, p)
		return n.advance(out)
	case *types.RBCFragPayload:
		out, deliveries := n.bcast.AppendHandleFrag(n.Take(), m.From, p)
		return n.advance(n.onDeliveries(out, deliveries))
	case *types.RBCSumPayload:
		out, deliveries := n.bcast.AppendHandleSum(n.Take(), m.From, p)
		return n.advance(n.onDeliveries(out, deliveries))
	case *types.CoinSharePayload:
		n.cfg.Coin.HandleShare(m.From, p)
		return n.advance(n.Take())
	case *types.DecidePayload:
		return n.onDecideVote(n.Take(), m.From, p)
	default:
		return nil
	}
}

// Decided reports whether the node decided and what.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// DecidedRound returns the round in which the node decided (0 if undecided).
func (n *Node) DecidedRound() int { return n.decidedRound }

// Round returns the node's current round.
func (n *Node) Round() int { return n.round }

// Proposal returns the node's input value.
func (n *Node) Proposal() types.Value { return n.cfg.Proposal }

// Stats returns protocol activity counters.
func (n *Node) Stats() Stats { return n.stats }

// AcceptedRetained returns how many justified messages the node currently
// retains in its quorum-wait table — with pruning on, a sliding window of
// Window+1 rounds; without it, the whole execution (diagnostics for the
// pruning tests and the E11 memory experiment).
func (n *Node) AcceptedRetained() int { return n.accepted.retained() }

// RBCLiveInstances returns how many reliable-broadcast instances the node
// retains at full fidelity (tallies and payloads); RBCCompacted returns how
// many it has released to compact delivered-digest records. With pruning on
// the live count stays bounded by the window plus non-terminal stragglers;
// without it, every instance of the execution stays live (diagnostics for
// the windowing tests and the E11 memory experiment).
func (n *Node) RBCLiveInstances() int { return n.bcast.Instances() }

// RBCCompacted returns the count of compact delivered-digest records held
// for pruned RBC instances.
func (n *Node) RBCCompacted() int { return n.bcast.Compacted() }

// ValidatorSeenRetained returns how many per-sender dedup entries the
// node's validator currently holds — windowed behind the decided frontier
// with pruning on, linear in rounds without.
func (n *Node) ValidatorSeenRetained() int { return n.val.SeenRetained() }

// RBCDigestBytes returns the bytes this node's broadcaster retains in
// compact delivered-digest records — the residue windowed pruning keeps
// forever, one record per terminal instance (see rbc.Broadcaster.DigestBytes).
func (n *Node) RBCDigestBytes() int { return n.bcast.DigestBytes() }

// JustificationsRetained returns how many per-round justification digests
// this node's validator retains — the other forever-residue of windowed
// pruning, one 64-byte digest per touched round.
func (n *Node) JustificationsRetained() int { return n.val.JustificationsRetained() }

// onRBC feeds a reliable-broadcast payload through the broadcaster, then
// processes whatever it delivered.
func (n *Node) onRBC(out []types.Message, from types.ProcessID, p *types.RBCPayload) []types.Message {
	out, deliveries := n.bcast.AppendHandle(out, from, p)
	return n.onDeliveries(out, deliveries)
}

// onDeliveries records every reliable-broadcast delivery — however
// disseminated, plain or coded — with the validator and appends newly
// justified messages to the quorum waits.
func (n *Node) onDeliveries(out []types.Message, deliveries []rbc.Delivery) []types.Message {
	for _, d := range deliveries {
		sm, err := wire.DecodeStep(d.Body)
		if err != nil {
			continue // Byzantine garbage body
		}
		// The RBC instance tag must match the body's slot, or a Byzantine
		// sender could use one broadcast to occupy another slot; foreign
		// consensus instances (different Seq) are not ours to count.
		if sm.Round != d.ID.Tag.Round || sm.Step != d.ID.Tag.Step || d.ID.Tag.Seq != n.cfg.Instance {
			continue
		}
		if n.cfg.Recorder.Enabled() {
			n.record(trace.Event{Kind: trace.KindRBC, P: n.cfg.Me, Round: sm.Round,
				Note: fmt.Sprintf("delivered %v from %v", sm, d.ID.Sender)})
		}
		for _, acc := range n.val.Record(d.ID.Sender, sm) {
			// Justified messages for pruned rounds are dead on arrival:
			// quorum windows only read the current round, which is already
			// past them. The validator still folded the message into its
			// round tallies above — those stay live, because justification
			// of in-flight current-round messages can reach back into them.
			if !n.accepted.add(acc.Msg.Round, acc.Msg.Step, acc, n.cfg.MaxRounds) {
				n.stats.PrunedLate++
			}
		}
	}
	return out
}

// advance applies every enabled transition until the node blocks on a wait,
// appending emitted messages to out.
func (n *Node) advance(out []types.Message) []types.Message {
	for !n.halted && !n.stalled {
		if n.waitingCoin {
			s, ok := n.cfg.Coin.Value(n.round)
			if !ok {
				break
			}
			n.waitingCoin = false
			n.stats.CoinsUsed++
			n.record(trace.Event{Kind: trace.KindCoin, P: n.cfg.Me, Round: n.round, V: s})
			n.value = s
			out = n.enterRound(out, n.round+1)
			continue
		}
		window, ok := n.quorumWindow()
		if !ok {
			break
		}
		n.stats.StepsDone++
		switch n.step {
		case types.Step1:
			n.value = majority(window)
			n.step = types.Step2
			out = n.broadcastStep(out)
		case types.Step2:
			if v, ok := superMajority(window, n.spec.SuperMajority()); ok {
				n.value = v
				n.dFlag = true
			} else {
				n.dFlag = false
			}
			n.step = types.Step3
			out = n.broadcastStep(out)
		case types.Step3:
			out = n.finishStep3(out, window)
		}
	}
	return out
}

// quorumWindow returns the first n−f accepted messages for the current
// slot, or false if the wait is not yet satisfied.
func (n *Node) quorumWindow() ([]validate.Accepted, bool) {
	list := n.accepted.window(n.round, n.step)
	q := n.spec.Quorum()
	if len(list) < q {
		return nil, false
	}
	return list[:q], true
}

// finishStep3 applies the decide/adopt/coin rule over the window and either
// moves to the next round or blocks on the coin.
func (n *Node) finishStep3(out []types.Message, window []validate.Accepted) []types.Message {
	// Release the round's coin unconditionally: with the common coin,
	// reconstruction needs f+1 correct shares, and only processes that
	// finished step 3 may contribute — so everyone must, whether or not
	// they personally fall through to the coin. Unpredictability is
	// preserved exactly as required: the coin stays secret until the first
	// correct process completes the round's step 3.
	out = append(out, n.cfg.Coin.Release(n.round)...)

	var dCount [2]int
	for _, acc := range window {
		if acc.Msg.D {
			dCount[acc.Msg.V]++
		}
	}
	// With validation on, at most one value can carry justified D-messages
	// in a round; pick the better-supported one defensively anyway (lax
	// ablations can produce both).
	v := types.Zero
	if dCount[1] > dCount[0] {
		v = types.One
	}
	switch {
	case dCount[v] >= n.spec.Decide():
		out = n.decide(out, v)
		n.value = v
		out = n.enterRound(out, n.round+1)
	case dCount[v] >= n.spec.Adopt():
		n.stats.Adopted++
		n.value = v
		out = n.enterRound(out, n.round+1)
	default:
		n.waitingCoin = true // advance() resumes when the coin lands
	}
	return out
}

// enterRound moves to the given round and broadcasts its step-1 message.
func (n *Node) enterRound(out []types.Message, r int) []types.Message {
	if r > n.cfg.MaxRounds {
		n.stalled = true
		n.record(trace.Event{Kind: trace.KindNote, P: n.cfg.Me, Round: r, Note: "max rounds reached; stalling"})
		return out
	}
	n.round = r
	n.step = types.Step1
	n.dFlag = false
	n.roundEnteredAt = n.cfg.Telemetry.Now()
	n.stats.RoundsStarted++
	if !n.cfg.DisablePruning {
		// The pruning invariant: state for round k is released once round
		// k+Window decides. Entering round r means r−1 decided, so with the
		// default Window of 1 everything below r−1 is released — accepted
		// lists recycle their backing arrays, a pruning-aware coin drops its
		// per-round share state (and any straggler shares that arrive
		// later), terminal RBC instances compact to delivered-digest
		// records, and the validator releases its per-sender seen entries.
		// The validator's per-round justification digests are deliberately
		// retained: justification of in-flight messages recurses into
		// previous rounds' digests, and they cost bytes per round, not
		// kilobytes.
		floor := r - n.cfg.Window
		n.accepted.pruneBelow(floor)
		if p, ok := n.cfg.Coin.(coin.Pruner); ok {
			p.Prune(floor)
		}
		n.bcast.PruneBelow(floor)
		n.val.PruneBelow(floor)
	}
	n.record(trace.Event{Kind: trace.KindRound, P: n.cfg.Me, Round: r})
	return n.broadcastStep(out)
}

// broadcastStep reliably broadcasts the node's current (round, step, value).
func (n *Node) broadcastStep(out []types.Message) []types.Message {
	sm := types.StepMessage{Round: n.round, Step: n.step, V: n.value, D: n.dFlag && n.step == types.Step3}
	body, err := wire.EncodeStep(sm)
	if err != nil {
		// All fields are internally generated and valid by construction.
		panic(fmt.Sprintf("core: encoding own step message %v: %v", sm, err))
	}
	return n.bcast.AppendBroadcast(out, types.Tag{Round: n.round, Step: n.step, Seq: n.cfg.Instance}, body)
}

// decide records the decision and, unless disabled, launches the DECIDE
// amplification.
func (n *Node) decide(out []types.Message, v types.Value) []types.Message {
	if !n.decided {
		n.decided = true
		n.decision = v
		n.decidedRound = n.round
		n.cfg.Telemetry.Observe(sim.PhaseRoundDecide, n.roundEnteredAt)
		n.record(trace.Event{Kind: trace.KindDecide, P: n.cfg.Me, Round: n.round, V: v})
	}
	if n.cfg.DisableDecideGadget || n.sentDecide {
		return out
	}
	n.sentDecide = true
	return types.AppendBroadcast(out, n.cfg.Me, n.cfg.Peers, &types.DecidePayload{V: v, Instance: n.cfg.Instance})
}

// onDecideVote handles the DECIDE amplification: relay at f+1 matching
// votes, decide-and-halt at 2f+1. One vote per sender counts (Byzantine
// senders cannot stuff the count, and with at most f of them they can never
// reach f+1 alone).
func (n *Node) onDecideVote(out []types.Message, from types.ProcessID, p *types.DecidePayload) []types.Message {
	if p == nil || !p.V.Valid() || p.Instance != n.cfg.Instance {
		return out
	}
	if _, dup := n.decideVotes[from]; dup {
		return out
	}
	n.decideVotes[from] = p.V
	var count [2]int
	for _, v := range n.decideVotes {
		count[v]++
	}
	v := p.V
	if count[v] >= n.spec.Adopt() && !n.sentDecide && !n.cfg.DisableDecideGadget {
		n.sentDecide = true
		out = types.AppendBroadcast(out, n.cfg.Me, n.cfg.Peers, &types.DecidePayload{V: v, Instance: n.cfg.Instance})
	}
	if count[v] >= n.spec.Decide() {
		if !n.decided {
			n.decided = true
			n.decision = v
			n.decidedRound = n.round
			n.cfg.Telemetry.Observe(sim.PhaseRoundDecide, n.roundEnteredAt)
			n.record(trace.Event{Kind: trace.KindDecide, P: n.cfg.Me, Round: n.round, V: v})
		}
		n.halted = true
		n.record(trace.Event{Kind: trace.KindHalt, P: n.cfg.Me, Round: n.round})
	}
	return out
}

func (n *Node) record(e trace.Event) {
	if n.cfg.Recorder.Enabled() {
		n.cfg.Recorder.Record(e)
	}
}

// majority returns the majority value of a window, ties to 0 — the same
// deterministic rule the validator assumes.
func majority(window []validate.Accepted) types.Value {
	var count [2]int
	for _, acc := range window {
		count[acc.Msg.V]++
	}
	if count[1] > count[0] {
		return types.One
	}
	return types.Zero
}

// superMajority returns the value held by more than half of all n processes
// within the window, if any.
func superMajority(window []validate.Accepted, sm int) (types.Value, bool) {
	var count [2]int
	for _, acc := range window {
		count[acc.Msg.V]++
	}
	switch {
	case count[0] >= sm:
		return types.Zero, true
	case count[1] >= sm:
		return types.One, true
	default:
		return 0, false
	}
}

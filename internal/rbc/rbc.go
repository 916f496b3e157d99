// Package rbc implements Bracha's reliable broadcast, the first contribution
// of the PODC-84 paper and the primitive every consensus step message rides
// on. It guarantees, with n > 3f and authenticated asynchronous links:
//
//   - Validity: if the sender is correct, every correct process delivers its
//     message.
//   - Agreement (consistency): no two correct processes deliver different
//     messages for the same instance — a Byzantine sender cannot
//     equivocate.
//   - Integrity: every correct process delivers at most once per instance.
//   - Totality: if any correct process delivers, every correct process
//     eventually delivers.
//
// Mechanics (per instance, identified by sender and application tag):
//
//	sender:   SEND(body) to all
//	on SEND(body) from the instance's sender, first one only:
//	          ECHO(body) to all
//	on ⌈(n+f+1)/2⌉ ECHO(body), or f+1 READY(body), if no READY sent yet:
//	          READY(body) to all
//	on 2f+1 READY(body), if not yet delivered:
//	          deliver(body)
//
// The echo threshold makes two quorums for different bodies impossible; the
// f+1 READY amplification makes delivery contagious (totality); 2f+1 READYs
// contain at least f+1 correct witnesses, which seed the amplification at
// every other correct process.
//
// # Windowing contract
//
// Long-lived owners (the consensus core, the SMR log) bound per-instance
// memory by compacting *terminal* instances — ones that have echoed,
// readied, and delivered — via Compact or PruneBelow. A terminal instance
// provably emits nothing ever again: a late SEND is ignored (already
// echoed), late ECHOs and READYs only update tallies that no threshold will
// read (already readied, already delivered). Compaction therefore replaces
// the full state (per-body tallies, payloads) with a compact delivered-
// digest record, and message handling for a compacted instance is a silent
// no-op — byte-for-byte the messages an uncompacted broadcaster would have
// sent, which is why the golden replay hashes pin it.
//
// What a pruned (compacted) instance promises late messages: nothing is
// sent in response, exactly as before compaction; Delivered(id) stays true
// and DeliveredDigest(id) still answers which body was delivered, so a
// catch-up layer can serve stragglers from the record. Totality for a
// straggler that has not delivered yet is unaffected: every correct process
// sent its READY broadcast before its instance became terminal, and
// asynchronous reliable links deliver those in-flight READYs eventually —
// the 2f+1 the straggler needs are already on the wire, not in the pruned
// state. Instances that never reached terminal state (a crashed sender's
// half-finished broadcast, a missing SEND) are deliberately *not* compacted:
// they may still have to echo or amplify, so they stay live at full fidelity
// however far the window moves.
package rbc

import (
	"fmt"

	"repro/internal/quorum"
	"repro/internal/rscode"
	"repro/internal/sim"
	"repro/internal/types"
)

// Delivery is one reliable-broadcast output: instance and agreed body.
type Delivery struct {
	ID   types.InstanceID
	Body string
}

// String implements fmt.Stringer.
func (d Delivery) String() string { return fmt.Sprintf("deliver %s: %q", d.ID, d.Body) }

// Broadcaster multiplexes all reliable-broadcast instances of one process.
// It is a deterministic state machine: Handle consumes one payload and
// returns the messages and deliveries it triggers. Not safe for concurrent
// use; the owning node serializes input.
type Broadcaster struct {
	me        types.ProcessID
	peers     []types.ProcessID
	spec      quorum.Spec
	instances map[types.InstanceID]*instance
	// compacted holds the delivered-body digest of every instance released
	// by Compact/PruneBelow (see the windowing contract in the package doc):
	// a few bytes instead of tallies and payloads. Handling a message for a
	// compacted instance is a silent no-op, identical to what the retained
	// terminal state would have done.
	compacted map[types.InstanceID]uint64
	// peerIdx maps a peer to its dense bitset index; words is the bitset
	// length every tally uses. Together they turn the per-(body, sender)
	// bookkeeping of the counting path into a bit test, replacing the
	// seed's map[string]map[ProcessID]bool nesting.
	peerIdx map[types.ProcessID]int32
	words   int
	// seqFloor is the protocol-level drop watermark (see DropSeqBelow):
	// instances below it hold no state at all, not even a digest record,
	// and all their traffic is a silent no-op.
	seqFloor int
	// code switches the broadcaster into AVID-style coded dissemination when
	// non-nil (see coded.go and NewCoded): broadcasts disperse Reed–Solomon
	// fragments instead of full bodies, and instance state lives in
	// codedInsts. The plain and coded modes are mutually silent: a coded
	// broadcaster ignores plain RBC phases and vice versa, so a mixed-mode
	// peer cannot inject state into either engine.
	code       *rscode.Code
	codedInsts map[types.InstanceID]*codedInst
	// scratch is the reusable hashing buffer of the coded path (fragment
	// digest checks, tally-key derivation): zero steady-state allocation.
	scratch []byte
	// tele, when non-nil, receives the RBC phase marks: instance first seen
	// → echo quorum / ready quorum / delivery (see sim.Telemetry). All
	// calls are nil-safe, so a detached broadcaster pays a branch, nothing
	// more.
	tele *sim.Telemetry
}

// SetTelemetry attaches the phase-latency sink (nil detaches). The sink
// must be the one the owning network was configured with — its clock is
// what turns first-seen marks into latencies.
func (b *Broadcaster) SetTelemetry(t *sim.Telemetry) { b.tele = t }

// New creates a Broadcaster for process me among peers (which must include
// me, matching the paper's "send to all" that includes the sender).
func New(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec) *Broadcaster {
	idx := make(map[types.ProcessID]int32, len(peers))
	for i, p := range peers {
		if _, dup := idx[p]; !dup {
			idx[p] = int32(i)
		}
	}
	return &Broadcaster{
		me:        me,
		peers:     append([]types.ProcessID(nil), peers...),
		spec:      spec,
		instances: make(map[types.InstanceID]*instance),
		compacted: make(map[types.InstanceID]uint64),
		peerIdx:   idx,
		words:     (len(peers) + 63) / 64,
	}
}

// tally counts the distinct peers supporting one body of one instance: a
// bitset over peer indices plus the popcount. Counting a vote is a bit
// test, not a map operation.
type tally struct {
	body  string
	seen  []uint64
	count int
}

// instance is the per-(sender, tag) state. The echo and ready tallies are
// small slices scanned linearly by body: a correct sender yields exactly
// one body, an equivocating sender a handful, and each distinct body costs
// its attacker an RBC-phase message per appearance anyway.
//
// The instance embeds this process's own ECHO and READY fan-out payloads:
// each is written at most once (guarded by echoed/readied) and then shared,
// immutable, by every outgoing copy of the broadcast, so the fan-out reuses
// one payload allocated with the instance instead of constructing a fresh
// one — the last per-payload allocation on the echo/ready path.
type instance struct {
	echoed    bool // this process echoed a body (at most one, ever)
	readied   bool // this process sent READY for a body (at most one)
	delivered bool
	// readyQuorum latches the 2f+1-readies phase mark (observed once); t0
	// is the instance's first-seen time, the start mark every RBC phase
	// latency is measured from.
	readyQuorum bool
	t0          sim.Time

	// deliveredDigest fingerprints the delivered body (set at delivery):
	// what survives compaction, so Delivered/DeliveredDigest keep answering
	// after the tallies and payloads are released.
	deliveredDigest uint64

	echoPayload  types.RBCPayload
	readyPayload types.RBCPayload

	echoes  []tally
	readies []tally
}

// terminal reports whether the instance can never emit again: it echoed,
// readied, and delivered, so every remaining handler path is a silent tally
// update. Only terminal instances may be compacted.
func (in *instance) terminal() bool { return in.echoed && in.readied && in.delivered }

// digest is the repository's shared FNV-1a over the body — the compact
// fingerprint kept for compacted instances. Not cryptographic: agreement is
// enforced by the echo quorum intersection before delivery ever happens;
// the digest only lets a catch-up layer identify what was delivered without
// retaining the body.
func digest(body string) uint64 {
	return types.FNV1aString(types.FNV1aInit, body)
}

func (b *Broadcaster) inst(id types.InstanceID) *instance {
	in, ok := b.instances[id]
	if !ok {
		in = &instance{t0: b.tele.Now()}
		b.instances[id] = in
	}
	return in
}

// mark records peer index pi as supporting body in the given tally list and
// returns the body's updated supporter count.
func (b *Broadcaster) mark(list *[]tally, body string, pi int32) int {
	var t *tally
	for i := range *list {
		if (*list)[i].body == body {
			t = &(*list)[i]
			break
		}
	}
	if t == nil {
		*list = append(*list, tally{body: body, seen: make([]uint64, b.words)})
		t = &(*list)[len(*list)-1]
	}
	w, bit := pi>>6, uint64(1)<<(pi&63)
	if t.seen[w]&bit == 0 {
		t.seen[w] |= bit
		t.count++
	}
	return t.count
}

// supporters returns the current supporter count for body (0 if unseen).
func supporters(list []tally, body string) int {
	for i := range list {
		if list[i].body == body {
			return list[i].count
		}
	}
	return 0
}

// Broadcast starts an instance with this process as sender: it emits the
// SEND to every peer (including itself; the echo happens on receipt, so a
// process's own broadcast follows the same path as everyone else's).
func (b *Broadcaster) Broadcast(tag types.Tag, body string) []types.Message {
	return b.AppendBroadcast(nil, tag, body)
}

// AppendBroadcast is Broadcast appending into a caller-provided slice. In
// coded mode the SEND is replaced by a per-peer fragment dispersal (see
// appendDisperse); deliveries and digests are unchanged, only the wire
// format differs.
func (b *Broadcaster) AppendBroadcast(out []types.Message, tag types.Tag, body string) []types.Message {
	if b.code != nil {
		return b.appendDisperse(out, tag, body)
	}
	id := types.InstanceID{Sender: b.me, Tag: tag}
	p := &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body}
	return types.AppendBroadcast(out, b.me, b.peers, p)
}

// Handle processes one incoming RBC payload from `from` and returns the
// protocol messages plus any deliveries it triggers. Malformed payloads
// (wrong phase kinds, SENDs not from the claimed sender) are ignored.
func (b *Broadcaster) Handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	return b.AppendHandle(nil, from, p)
}

// AppendHandle is Handle appending protocol messages into a caller-provided
// slice — the allocation-free path for nodes that reuse an output buffer.
func (b *Broadcaster) AppendHandle(out []types.Message, from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	if p == nil || b.code != nil {
		// A coded broadcaster is silent to plain RBC phases: its quorums count
		// fragment echoes and checksum readies only (AppendHandleFrag,
		// AppendHandleSum), so a mixed-mode peer cannot vote here.
		return out, nil
	}
	// Compacted instances answer every late message with silence — exactly
	// what their retained terminal state would have produced (see the
	// windowing contract): no SEND reaction (echoed), no READY (readied), no
	// delivery (delivered). One map probe, no allocation, no regrowth. The
	// same silence covers instances below a checkpoint drop watermark, whose
	// records are gone entirely.
	if _, done := b.compacted[p.ID]; done {
		return out, nil
	}
	if b.dropped(p.ID) {
		return out, nil
	}
	switch p.Phase {
	case types.KindRBCSend:
		// Authenticated links: a SEND for instance (s, tag) counts only if
		// it actually came from s.
		if from != p.ID.Sender {
			return out, nil
		}
		return b.onSend(out, p), nil
	case types.KindRBCEcho:
		return b.onEcho(out, from, p)
	case types.KindRBCReady:
		return b.onReady(out, from, p)
	default:
		return out, nil
	}
}

func (b *Broadcaster) onSend(out []types.Message, p *types.RBCPayload) []types.Message {
	in := b.inst(p.ID)
	if in.echoed {
		return out // already echoed a body for this instance (first SEND wins)
	}
	in.echoed = true
	in.echoPayload = types.RBCPayload{Phase: types.KindRBCEcho, ID: p.ID, Body: p.Body}
	return types.AppendBroadcast(out, b.me, b.peers, &in.echoPayload)
}

func (b *Broadcaster) onEcho(out []types.Message, from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	pi, ok := b.peerIdx[from]
	if !ok {
		return out, nil // only peers hold votes toward the quorums
	}
	in := b.inst(p.ID)
	echoes := b.mark(&in.echoes, p.Body, pi)
	return b.maybeReadyAndDeliver(out, in, p.ID, p.Body, echoes, supporters(in.readies, p.Body))
}

func (b *Broadcaster) onReady(out []types.Message, from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	pi, ok := b.peerIdx[from]
	if !ok {
		return out, nil // only peers hold votes toward the quorums
	}
	in := b.inst(p.ID)
	readies := b.mark(&in.readies, p.Body, pi)
	return b.maybeReadyAndDeliver(out, in, p.ID, p.Body, supporters(in.echoes, p.Body), readies)
}

// maybeReadyAndDeliver applies the two threshold rules for body after any
// counter change, given body's current echo and ready supporter counts.
func (b *Broadcaster) maybeReadyAndDeliver(out []types.Message, in *instance, id types.InstanceID,
	body string, echoes, readies int) ([]types.Message, []Delivery) {
	if !in.readied && (echoes >= b.spec.Echo() || readies >= b.spec.Adopt()) {
		if echoes >= b.spec.Echo() {
			// The mark means "the echo quorum tripped this READY"; a READY
			// triggered by f+1 amplification is deliberately not charged
			// here — it measures contagion, not quorum assembly.
			b.tele.Observe(sim.PhaseRBCEchoQuorum, in.t0)
		}
		in.readied = true
		in.readyPayload = types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}
		out = types.AppendBroadcast(out, b.me, b.peers, &in.readyPayload)
	}
	var deliveries []Delivery
	if !in.readyQuorum && readies >= b.spec.Decide() {
		in.readyQuorum = true
		b.tele.Observe(sim.PhaseRBCReadyQuorum, in.t0)
	}
	if !in.delivered && readies >= b.spec.Decide() {
		in.delivered = true
		in.deliveredDigest = digest(body)
		b.tele.Observe(sim.PhaseRBCDeliver, in.t0)
		deliveries = append(deliveries, Delivery{ID: id, Body: body})
	}
	return out, deliveries
}

// Delivered reports whether the given instance has delivered at this
// process. Compaction preserves the answer: a pruned instance was delivered
// by definition.
func (b *Broadcaster) Delivered(id types.InstanceID) bool {
	if _, done := b.compacted[id]; done {
		return true
	}
	if in, ok := b.instances[id]; ok && in.delivered {
		return true
	}
	ci, ok := b.codedInsts[id]
	return ok && ci.delivered
}

// DeliveredDigest returns the FNV-1a fingerprint of the body this instance
// delivered (false if it has not delivered). It keeps answering after
// compaction — the record a catch-up layer serves to stragglers asking what
// a pruned instance agreed on.
func (b *Broadcaster) DeliveredDigest(id types.InstanceID) (uint64, bool) {
	if d, done := b.compacted[id]; done {
		return d, true
	}
	if in, ok := b.instances[id]; ok && in.delivered {
		return in.deliveredDigest, true
	}
	if ci, ok := b.codedInsts[id]; ok && ci.delivered {
		return ci.deliveredDigest, true
	}
	return 0, false
}

// Compact releases one instance's tallies and payloads if it is terminal
// (echoed, readied, delivered — it can never emit again), leaving only the
// delivered-digest record. Reports whether compaction happened; non-terminal
// instances are left untouched so late echoes still amplify. Per-slot owners
// (the SMR log, ACS input dissemination) call this when a slot commits.
func (b *Broadcaster) Compact(id types.InstanceID) bool {
	if in, ok := b.instances[id]; ok && in.terminal() {
		b.compacted[id] = in.deliveredDigest
		delete(b.instances, id)
		return true
	}
	if ci, ok := b.codedInsts[id]; ok && ci.terminal() {
		b.compacted[id] = ci.deliveredDigest
		delete(b.codedInsts, id)
		return true
	}
	return false
}

// PruneBelow compacts every terminal instance whose tag round is below the
// given round, returning how many it released. Round-tagged owners (the
// consensus core) call it on round entry with the same floor as the rest of
// the per-round state; roundless instances (Tag.Round == 0, the namespace
// the SMR/ACS layers use) are never touched — they are pruned per slot via
// Compact instead. Non-terminal instances below the floor stay live at full
// fidelity: they may still owe the network an echo or an amplification.
func (b *Broadcaster) PruneBelow(round int) int {
	released := 0
	for id, in := range b.instances {
		if id.Tag.Round == 0 || id.Tag.Round >= round || !in.terminal() {
			continue
		}
		b.compacted[id] = in.deliveredDigest
		delete(b.instances, id)
		released++
	}
	for id, ci := range b.codedInsts {
		if id.Tag.Round == 0 || id.Tag.Round >= round || !ci.terminal() {
			continue
		}
		b.compacted[id] = ci.deliveredDigest
		delete(b.codedInsts, id)
		released++
	}
	return released
}

// Instances returns the number of live (uncompacted) instances this
// broadcaster tracks — the full-fidelity state that dominates RBC memory.
// With windowing driven by an owner this stays bounded by the window (plus
// any non-terminal stragglers); Byzantine processes can create instances
// freely, so memory pressure is observable here.
func (b *Broadcaster) Instances() int { return len(b.instances) + len(b.codedInsts) }

// Compacted returns how many instances have been released to delivered-
// digest records (diagnostics; each record costs a map entry and 8 bytes,
// not tallies and payloads).
func (b *Broadcaster) Compacted() int { return len(b.compacted) }

// compactedRecordBytes is the accounted cost of one delivered-digest record:
// the InstanceID key (sender + three tag ints) plus the uint64 digest. Map
// overhead is excluded — the counter tracks growth shape, not allocator
// detail.
const compactedRecordBytes = 40

// DigestBytes returns the bytes retained by the compact delivered-digest
// records — the residue windowed pruning deliberately keeps forever, growing
// one record per terminal instance. A checkpointing owner retires it with
// DropSeqBelow; without one it is the measurable unbounded remainder on
// infinite executions (experiment E12).
func (b *Broadcaster) DigestBytes() int { return len(b.compacted) * compactedRecordBytes }

// DropSeqBelow releases every instance and delivered-digest record in the
// roundless (sequence) namespace with Tag.Seq below seq, live or compacted,
// terminal or not, and returns how many it dropped. The bound becomes a
// watermark: later traffic for the released range is a silent no-op and
// never regrows state (without a watermark a late SEND would re-create a
// fresh instance and echo — visibly different from the silence a compacted
// record gives).
//
// This is a *protocol-level* release, stronger than the windowing contract:
// a dropped instance no longer answers Delivered/DeliveredDigest, and a
// half-finished broadcast below the bound is abandoned. The caller must hold
// a checkpoint certificate covering the dropped range — a quorum's statement
// that the slots below seq are settled and any process still missing them
// will be served state transfer, not RBC catch-up (internal/ckpt).
func (b *Broadcaster) DropSeqBelow(seq int) int {
	if seq <= b.seqFloor {
		return 0
	}
	b.seqFloor = seq
	dropped := 0
	for id := range b.instances {
		if b.belowSeqFloor(id) {
			delete(b.instances, id)
			dropped++
		}
	}
	for id := range b.codedInsts {
		if b.belowSeqFloor(id) {
			delete(b.codedInsts, id)
			dropped++
		}
	}
	for id := range b.compacted {
		if b.belowSeqFloor(id) {
			delete(b.compacted, id)
			dropped++
		}
	}
	return dropped
}

func (b *Broadcaster) belowSeqFloor(id types.InstanceID) bool {
	return id.Tag.Round == 0 && id.Tag.Step == 0 && id.Tag.Seq < b.seqFloor
}

// dropped reports whether the instance lies below the protocol-level drop
// watermark or names a negative round — the wire encodes rounds as signed,
// and no correct process broadcasts in one (checked on every message
// before any state is touched).
func (b *Broadcaster) dropped(id types.InstanceID) bool {
	return id.Tag.Round < 0 || b.belowSeqFloor(id)
}

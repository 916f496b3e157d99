package rbc

import (
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// runSeqInstance drives one roundless (sequence-tagged) instance at b to
// terminal state: SEND from the sender, then echoes and readies from every
// peer.
func runSeqInstance(t *testing.T, b *Broadcaster, peers []types.ProcessID, seq int, body string) types.InstanceID {
	t.Helper()
	id := types.InstanceID{Sender: peers[0], Tag: types.Tag{Seq: seq}}
	b.Handle(peers[0], &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body})
	for _, p := range peers {
		b.Handle(p, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body})
	}
	delivered := false
	for _, p := range peers {
		_, ds := b.Handle(p, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body})
		delivered = delivered || len(ds) > 0
	}
	if !delivered {
		t.Fatalf("instance seq %d did not deliver", seq)
	}
	return id
}

func TestDropSeqBelowReleasesRecordsAndLiveInstances(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(peers[1], peers, spec)

	// Three terminal instances, two compacted to records, one left live,
	// plus one half-finished (non-terminal) broadcast.
	var ids []types.InstanceID
	for seq := 10; seq <= 12; seq++ {
		ids = append(ids, runSeqInstance(t, b, peers, seq, "body"))
	}
	b.Compact(ids[0])
	b.Compact(ids[1])
	half := types.InstanceID{Sender: peers[0], Tag: types.Tag{Seq: 13}}
	b.Handle(peers[0], &types.RBCPayload{Phase: types.KindRBCSend, ID: half, Body: "x"})

	if b.DigestBytes() == 0 {
		t.Fatal("no digest bytes accounted for compacted records")
	}
	dropped := b.DropSeqBelow(14)
	if dropped != 4 {
		t.Fatalf("dropped %d, want 4 (2 records + 1 terminal live + 1 half-finished)", dropped)
	}
	if b.Instances() != 0 || b.Compacted() != 0 || b.DigestBytes() != 0 {
		t.Fatalf("state survived drop: %d live, %d records", b.Instances(), b.Compacted())
	}
	// Below the watermark nothing answers and nothing regrows.
	if b.Delivered(ids[0]) {
		t.Error("dropped record still answers Delivered")
	}
	if _, ok := b.DeliveredDigest(ids[1]); ok {
		t.Error("dropped record still answers DeliveredDigest")
	}
	out, ds := b.Handle(peers[0], &types.RBCPayload{Phase: types.KindRBCSend, ID: ids[2], Body: "body"})
	if len(out) != 0 || len(ds) != 0 {
		t.Fatalf("late SEND below the watermark produced output: %d msgs, %d deliveries", len(out), len(ds))
	}
	if b.Instances() != 0 {
		t.Fatal("late SEND below the watermark regrew an instance")
	}
	// Instances at or above the watermark are untouched.
	above := runSeqInstance(t, b, peers, 14, "later")
	if !b.Delivered(above) {
		t.Fatal("instance at the watermark broken by the drop")
	}
}

func TestDropWatermarksAreMonotone(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(peers[1], peers, spec)
	runSeqInstance(t, b, peers, 5, "body")
	if got := b.DropSeqBelow(10); got != 1 {
		t.Fatalf("first drop released %d, want 1", got)
	}
	if got := b.DropSeqBelow(7); got != 0 {
		t.Fatalf("lower re-drop released %d, want 0 (watermark monotone)", got)
	}
}

// TestNegativeRoundTrafficCreatesNoInstance: the wire encodes rounds as
// signed integers, so a Byzantine peer can name a negative round. Such
// traffic is refused before any state is touched, in the plain and the
// coded engine alike; the same traffic at round 1 (the control) does grow
// instances.
func TestNegativeRoundTrafficCreatesNoInstance(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	for _, round := range []int{1, -1} {
		tag := types.Tag{Round: round, Step: types.Step1}
		id := types.InstanceID{Sender: peers[0], Tag: tag}

		plain := New(peers[1], peers, spec)
		for _, phase := range []types.Kind{types.KindRBCSend, types.KindRBCEcho, types.KindRBCReady} {
			for _, p := range peers {
				plain.Handle(p, &types.RBCPayload{Phase: phase, ID: id, Body: "v"})
			}
		}

		coded := NewCoded(peers[1], peers, spec)
		frags := 0
		for _, m := range NewCoded(peers[0], peers, spec).Broadcast(tag, "body") {
			if frag, ok := m.Payload.(*types.RBCFragPayload); ok {
				coded.HandleFrag(peers[0], frag)
				frags++
			}
		}
		if frags == 0 {
			t.Fatalf("round %d: the coded sender dispersed no fragments", round)
		}
		for _, p := range peers {
			coded.HandleSum(p, &types.RBCSumPayload{ID: id, Sum: strings.Repeat("s", sumLen)})
		}

		if created := plain.Instances() > 0; created != (round > 0) {
			t.Errorf("round %d: plain instances %d", round, plain.Instances())
		}
		if created := coded.Instances() > 0; created != (round > 0) {
			t.Errorf("round %d: coded instances %d", round, coded.Instances())
		}
	}
}

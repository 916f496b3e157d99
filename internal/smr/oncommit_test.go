package smr

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// commitEvent is one OnCommit or OnCertified call, in firing order.
type commitEvent struct {
	cert    bool // an OnCertified call (slot is then the cut)
	install bool // ... fired by a state-transfer install
	slot    int
	entries int
}

// TestOnCommitFiresOncePerSlotInOrder: the commit hook fires exactly once
// per committed slot, in slot order, with exactly the entries LogSince
// returns for that slot — whole batches included — and a state-transfer
// install produces no call for the slots it skips: the next call after the
// install's OnCertified is the installed cut. A cut certified from votes
// never passes the slots already reported.
func TestOnCommitFiresOncePerSlotInOrder(t *testing.T) {
	const n, f, slots, every = 4, 1, 32, 4
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			spec := quorum.MustNew(n, f)
			peers := types.Processes(n)
			net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			// Each instance, the victim's pre-crash and revived ones
			// separately, records its own event stream.
			var instances [][]commitEvent
			build := func(p types.ProcessID) *Replica {
				k := len(instances)
				instances = append(instances, nil)
				var rep *Replica
				installs := 0
				rep, err := New(Config{
					Me: p, Peers: peers, Spec: spec,
					NewCoin: func(slot int) coin.Coin {
						return coin.NewLocal(int64(p)*1000 + int64(slot))
					},
					Rotation:         peers[:n-1], // the victim must not hold up slots
					Machine:          NewKVMachine(),
					Batch:            batch,
					Depth:            2,
					CheckpointEvery:  every,
					CheckpointSecret: []byte("test-cluster"),
					OnCommit: func(slot int, entries []Entry) {
						instances[k] = append(instances[k], commitEvent{slot: slot, entries: len(entries)})
						if want := rep.LogSince(slot); !reflect.DeepEqual(entries, want) {
							t.Errorf("%v slot %d: hook entries %v, LogSince %v", p, slot, entries, want)
						}
					},
					OnCertified: func(cut int) {
						install := rep.Transfers() > installs
						installs = rep.Transfers()
						instances[k] = append(instances[k], commitEvent{cert: true, install: install, slot: cut})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < 8; c++ {
					rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c))
				}
				return rep
			}
			var live []*Replica
			for _, p := range peers[:n-1] {
				rep := build(p)
				live = append(live, rep)
				if err := net.Add(rep); err != nil {
					t.Fatal(err)
				}
			}
			victim := sim.NewRestart(func() sim.Node { return build(peers[n-1]) }, 80*n, 160*n)
			if err := net.Add(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(func() bool {
				for _, rep := range live {
					if rep.Slot() < slots {
						return false
					}
				}
				if !victim.Restarted() || victim.Down() {
					return false
				}
				rep := victim.Inner().(*Replica)
				return rep.Transfers() > 0 && rep.Slot() >= rep.Base()+3
			}); err != nil {
				t.Fatal(err)
			}
			if len(instances) != n+1 {
				t.Fatalf("%d replica instances built, want %d (the victim revived once)", len(instances), n+1)
			}

			// Instances 0..n-2 are the live replicas, n-1 the victim's
			// pre-crash self, n its revived self.
			multi, jumps := false, 0
			nexts := make([]int, len(instances))
			for k, events := range instances {
				next := 0
				for _, e := range events {
					switch {
					case e.install && e.slot > next:
						next = e.slot // the skipped slots never commit here
						jumps++
					case e.cert && e.slot > next:
						t.Fatalf("instance %d: cut %d certified past reported slot %d", k, e.slot, next)
					case e.cert:
					case e.slot != next:
						t.Fatalf("instance %d: OnCommit(%d), want slot %d", k, e.slot, next)
					case e.entries == 0:
						t.Fatalf("instance %d: slot %d committed no entries", k, e.slot)
					default:
						multi = multi || e.entries > 1
						next++
					}
				}
				nexts[k] = next
			}
			revived := victim.Inner().(*Replica)
			if jumps == 0 || revived.Transfers() == 0 {
				t.Fatalf("no state-transfer install observed (jumps=%d transfers=%d)", jumps, revived.Transfers())
			}
			if batch > 1 && !multi {
				t.Error("no batched slot committed more than one entry")
			}
			// Every slot a replica committed produced a call.
			for k, rep := range append(live, nil, revived) {
				if rep != nil && nexts[k] != rep.Slot() {
					t.Errorf("instance %d: hook stream ends at slot %d, replica at %d", k, nexts[k], rep.Slot())
				}
			}
		})
	}
}

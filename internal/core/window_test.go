package core

// Window tests: the per-round retention window must bound every retainer the
// node owns — accepted lists, live RBC instances, validator seen entries —
// by the window size rather than the rounds run, at any window, without
// moving a single decision.

import (
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// stalledClusterWindow is stalledCluster with an explicit retention window.
func stalledClusterWindow(t *testing.T, n, f, maxRounds, window int, disablePruning bool) []*Node {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, n)
	for i, p := range peers {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(5 + int64(p)*1000),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			DisablePruning:      disablePruning,
			Window:              window,
			MaxRounds:           maxRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.Round() != maxRounds {
			t.Fatalf("%v stopped in round %d, want stall at %d", nd.ID(), nd.Round(), maxRounds)
		}
	}
	return nodes
}

// TestWindowBoundsEveryRetainer: at windows 1 and 3, accepted messages,
// live RBC instances, and validator seen entries are all bounded by the
// window (not the rounds run), the compaction counter shows instances were
// actually released, and decisions match the unpruned cluster's exactly.
func TestWindowBoundsEveryRetainer(t *testing.T) {
	const n, f, rounds = 4, 1, 12
	unpruned := stalledClusterWindow(t, n, f, rounds, 1, true)
	for _, window := range []int{1, 3} {
		nodes := stalledClusterWindow(t, n, f, rounds, window, false)
		// Window+1 retained rounds × 3 steps × ≤ n messages (or instances,
		// or seen entries) per slot.
		bound := (window + 1) * 3 * n
		for i, nd := range nodes {
			if got := nd.AcceptedRetained(); got > bound {
				t.Errorf("window %d: %v retains %d accepted msgs, want ≤ %d", window, nd.ID(), got, bound)
			}
			if got := nd.RBCLiveInstances(); got > bound {
				t.Errorf("window %d: %v retains %d live RBC instances, want ≤ %d", window, nd.ID(), got, bound)
			}
			if got := nd.ValidatorSeenRetained(); got > bound {
				t.Errorf("window %d: %v retains %d validator seen entries, want ≤ %d", window, nd.ID(), got, bound)
			}
			if nd.RBCCompacted() == 0 {
				t.Errorf("window %d: %v compacted no RBC instances over %d rounds", window, nd.ID(), rounds)
			}
			u := unpruned[i]
			if got, want := nd.RBCLiveInstances(), u.RBCLiveInstances(); got >= want {
				t.Errorf("window %d: %v live instances %d not below unpruned %d", window, nd.ID(), got, want)
			}
			if got, want := nd.ValidatorSeenRetained(), u.ValidatorSeenRetained(); got >= want {
				t.Errorf("window %d: %v seen retention %d not below unpruned %d", window, nd.ID(), got, want)
			}
			pv, pok := nd.Decided()
			uv, uok := u.Decided()
			if pok != uok || pv != uv {
				t.Errorf("window %d: %v decision %v/%v differs from unpruned %v/%v", window, nd.ID(), pv, pok, uv, uok)
			}
		}
	}
}

// TestUnprunedRetainersGrowWithRounds is the control: without pruning, live
// RBC instances and seen entries scale with rounds run — the growth the
// window exists to cut off.
func TestUnprunedRetainersGrowWithRounds(t *testing.T) {
	const n, f = 4, 1
	short := stalledClusterWindow(t, n, f, 4, 1, true)
	long := stalledClusterWindow(t, n, f, 12, 1, true)
	if got, want := long[0].RBCLiveInstances(), short[0].RBCLiveInstances(); got <= want {
		t.Errorf("unpruned live instances did not grow with rounds: %d (12r) vs %d (4r)", got, want)
	}
	if got, want := long[0].ValidatorSeenRetained(), short[0].ValidatorSeenRetained(); got <= want {
		t.Errorf("unpruned seen entries did not grow with rounds: %d (12r) vs %d (4r)", got, want)
	}
}

// TestNegativeWindowRejected: the config contract.
func TestNegativeWindowRejected(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	_, err := New(Config{
		Me: 1, Peers: peers, Spec: spec,
		Coin: coin.NewLocal(1), Window: -1,
	})
	if err == nil {
		t.Fatal("negative window accepted")
	}
}

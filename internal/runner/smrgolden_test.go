package runner

import (
	"fmt"
	"testing"
)

// smrObserverDigest renders the RunSMR fields the log observer derives —
// the reference digests and stream verdict, the agreement and exactly-once
// tallies, the victim's commit count — plus the run's size, so a change to
// how the harness observes commits cannot move any of them unnoticed.
func smrObserverDigest(res *SMRResult) string {
	return fmt.Sprintf("log=%016x state=%016x full=%v mismatches=%d entries=%d dups=%d victim=%d transfers=%d deliveries=%d end=%d",
		res.LogDigest, res.StateDigest, res.FullStream, res.Mismatches, res.Entries,
		res.DuplicateCommands, res.VictimCommitted, res.Transfers, res.Deliveries, res.EndTime)
}

// smrGoldenRuns runs the pinned RunSMR matrix and returns each run's
// observer digest by name. The power cycle contributes both phases: the
// second boots every replica from the first's durable records.
func smrGoldenRuns(t *testing.T) map[string]string {
	t.Helper()
	stale := CkptScenarios()[3]
	if stale.Name != "stale-responder/restart" {
		t.Fatalf("checkpoint scenario 3 is %q", stale.Name)
	}
	cycle := SMRConfig{N: 4, F: 1, Slots: 24, Commands: 4, CheckpointEvery: 8, Seed: 8, CkptDir: t.TempDir()}
	cycled := cycle
	cycled.Slots = 48
	runs := []struct {
		name string
		cfg  SMRConfig
	}{
		{"plain", SMRConfig{N: 4, F: 1, Slots: 24, Commands: 4, Seed: 1}},
		{"ckpt-common", SMRConfig{N: 4, F: 1, Slots: 24, Commands: 4, CheckpointEvery: 8, Coin: CoinCommon, Seed: 2}},
		{"batch-depth-coded", SMRConfig{N: 4, F: 1, Slots: 16, Commands: 24, Batch: 4, Depth: 2, Coded: true, CheckpointEvery: 4, Seed: 3}},
		{"restart", RestartCatchupSpec(4, 48, 8, 4)},
		{"straggler", SMRConfig{N: 4, F: 1, Slots: 32, Commands: 4, CheckpointEvery: 8, Sched: SchedStraggler, Seed: 5}},
		{"split-heal", SMRConfig{N: 4, F: 1, Slots: 32, Commands: 4, CheckpointEvery: 8, Sched: SchedSplitHeal, Seed: 6}},
		{"stale-responder-restart", stale.Spec(4, 48, 8, 7)},
		{"power-cycle/1", cycle},
		{"power-cycle/2", cycled},
	}
	got := make(map[string]string, len(runs))
	for _, r := range runs {
		res, err := RunSMR(r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = smrObserverDigest(res)
	}
	return got
}

// goldenSMRObserver pins smrObserverDigest for every run of smrGoldenRuns,
// recorded from the per-delivery polling observer that the commit-hook
// observer replaced.
var goldenSMRObserver = map[string]string{
	"plain":                   "log=3143edeb740794bd state=1abed5e3667fffa1 full=true mismatches=0 entries=24 dups=0 victim=0 transfers=0 deliveries=13014 end=3950",
	"ckpt-common":             "log=3143edeb740794bd state=1abed5e3667fffa1 full=true mismatches=0 entries=24 dups=0 victim=0 transfers=0 deliveries=13332 end=3891",
	"batch-depth-coded":       "log=52d6405452d41ad5 state=5a7b716baa81912e full=true mismatches=0 entries=64 dups=0 victim=0 transfers=0 deliveries=8678 end=2055",
	"restart":                 "log=c19f7b017deb35dd state=ad8e2cf2d80b4aef full=true mismatches=0 entries=48 dups=0 victim=32 transfers=2 deliveries=23185 end=8473",
	"straggler":               "log=3a353e65a4ce1a55 state=1abed5e3667fffa1 full=true mismatches=0 entries=32 dups=0 victim=0 transfers=0 deliveries=15544 end=7795",
	"split-heal":              "log=3a353e65a4ce1a55 state=1abed5e3667fffa1 full=true mismatches=0 entries=32 dups=0 victim=0 transfers=0 deliveries=17271 end=5471",
	"stale-responder-restart": "log=c19f7b017deb35dd state=ad8e2cf2d80b4aef full=true mismatches=0 entries=48 dups=0 victim=32 transfers=2 deliveries=23297 end=8513",
	"power-cycle/1":           "log=3143edeb740794bd state=1abed5e3667fffa1 full=true mismatches=0 entries=24 dups=0 victim=0 transfers=0 deliveries=13016 end=3906",
	// Phase 2 boots at each replica's persisted cut, so the observer sees
	// only the entries committed above the reference replica's cut.
	"power-cycle/2": "log=e276cbb2595f67e5 state=1abed5e3667fffa1 full=true mismatches=0 entries=24 dups=0 victim=0 transfers=0 deliveries=13286 end=4103",
}

// TestRunSMRObserverGolden pins the observer-derived SMRResult fields to
// values recorded before the observer was rebuilt on smr's commit hook:
// the rebuild must reproduce them bitwise on plain, checkpointed, batched
// and coded, restart, straggler, split-heal, attacked and power-cycled runs.
// A failure prints the moved entry in table form.
func TestRunSMRObserverGolden(t *testing.T) {
	for name, digest := range smrGoldenRuns(t) {
		if want := goldenSMRObserver[name]; digest != want {
			t.Errorf("observer fields moved\n got %q: %q,\nwant %q", name, digest, want)
		}
	}
}

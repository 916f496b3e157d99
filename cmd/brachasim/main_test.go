package main

import (
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestRunCleanConfiguration(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "4", "-f", "1", "-adversary", "liar", "-seed", "3"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"violations: none", "all-decided=true", "coin=common"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBrokenConfigurationFails(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "4", "-f", "1", "-byzantine", "2",
		"-adversary", "split-brain", "-scheduler", "rush-byz",
		"-max-rounds", "50", "-max-deliveries", "200000",
	}, &sb)
	if err == nil {
		t.Fatalf("oversized-f run reported success:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "agreement") {
		t.Errorf("expected an agreement violation in output:\n%s", sb.String())
	}
}

func TestRunTraceOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "4", "-f", "1", "-adversary", "none", "-trace", "-coin", "ideal"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "--- trace ---") || !strings.Contains(out, "DECIDE") {
		t.Errorf("trace output missing:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := [][]string{
		{"-protocol", "pbft"},
		{"-coin", "quantum"},
		{"-adversary", "gremlin"},
		{"-scheduler", "psychic"},
		{"-inputs", "all-sevens"},
	}
	for _, args := range tests {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunBenOr(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "11", "-f", "2", "-protocol", "benor", "-adversary", "silent"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "benor") {
		t.Errorf("output missing protocol name:\n%s", sb.String())
	}
}

// TestFlagParsers: every kind of every enum round-trips through its String
// name, the enumeration reaches the enum's last kind, and the flag help
// names every kind.
func TestFlagParsers(t *testing.T) {
	roundTrip(t, "protocol", runner.ProtocolBenOr)
	roundTrip(t, "coin", runner.CoinIdeal)
	roundTrip(t, "adversary", runner.AdvCrashMidway)
	roundTrip(t, "scheduler", runner.SchedAdaptiveRush)
	roundTrip(t, "inputs", runner.InputRandom)
}

func roundTrip[E kind](t *testing.T, what string, last E) {
	t.Helper()
	all := kinds[E]()
	if len(all) != int(last) {
		t.Errorf("%s: enumerated %v, want kinds 1..%v", what, all, last)
	}
	help := usage[E](what)
	for _, e := range all {
		if got, err := parseKind[E](what, e.String()); err != nil || got != e {
			t.Errorf("%s %q parsed as %v, %v", what, e.String(), got, err)
		}
		if !strings.Contains(help, " "+e.String()) {
			t.Errorf("%s help %q omits %q", what, help, e.String())
		}
	}
	if _, err := parseKind[E](what, "bogus"); err == nil {
		t.Errorf("%s: bogus accepted", what)
	}
}

// TestRunEveryScheduler: every scheduler the runner offers is selectable
// and runs a clean consensus.
func TestRunEveryScheduler(t *testing.T) {
	for _, s := range kinds[runner.SchedulerKind]() {
		var sb strings.Builder
		if err := run([]string{"-n", "4", "-f", "1", "-scheduler", s.String()}, &sb); err != nil {
			t.Errorf("-scheduler %s: %v\n%s", s, err, sb.String())
		}
	}
}

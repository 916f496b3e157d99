package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/runner"
)

// The traced rebuild must reproduce RunSMR exactly, and its spans must
// reconcile: per-kind deliveries sum to the deliveries, the Sizer and the
// scheduler see every message once, and no self time is negative.
func TestTracedRebuildReconciles(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  runner.SMRConfig
	}{
		{"log", logConfig(3, 4)},
		{"bulk", bulkConfig(3, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it, err := smrIteration(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if it.failed != 0 || it.unsafe {
				t.Fatalf("untraced run failed its checks: %+v", it)
			}
			tr := &smrTrace{spans: newSpans()}
			o, err := tracedSMR(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if o.counts != it.det {
				t.Fatalf("traced rebuild diverged:\n traced   %+v\n RunSMR   %+v", o.counts, it.det)
			}
			if failed, _ := o.verdict(tc.cfg); failed {
				t.Fatalf("traced run failed its checks: %+v", o)
			}
			var kinds int64
			for _, s := range kindSplits {
				kinds += tr.kindN[s.kind]
			}
			if kinds != o.Deliveries || int64(len(tr.deliverT)) != o.Deliveries {
				t.Errorf("kind splits sum to %d, Deliver spans %d, deliveries %d", kinds, len(tr.deliverT), o.Deliveries)
			}
			if tr.calls[layerSizer] != o.Messages || tr.calls[layerSched] != o.Messages {
				t.Errorf("Sizer calls %d, scheduler calls %d, messages %d", tr.calls[layerSizer], tr.calls[layerSched], o.Messages)
			}
			for l := range layerCount {
				if tr.self[l] < 0 || tr.self[l] > tr.total[l] {
					t.Errorf("layer %d: self %d outside [0, total %d]", l, tr.self[l], tr.total[l])
				}
			}
			if len(tr.stack) != 0 {
				t.Errorf("%d spans left open", len(tr.stack))
			}
			if tr.calls[layerCoin] == 0 || tr.applies == 0 || tr.queuePeak <= 0 {
				t.Errorf("a seam saw no traffic: coin %d, applies %d, queue peak %d", tr.calls[layerCoin], tr.applies, tr.queuePeak)
			}
			// Every sent message was scheduled, and every delivered one
			// popped, so what is left in flight is their difference.
			if left := o.Messages - o.Deliveries; tr.inflight != left {
				t.Errorf("in flight at the end %d, want messages − deliveries = %d", tr.inflight, left)
			}
			m := tr.metrics(int64(tc.cfg.Slots), o.Deliveries)
			var perOp float64
			for _, s := range kindSplits {
				perOp += m[s.name+".deliveries_per_op"]
			}
			if want := float64(o.Deliveries) / float64(tc.cfg.Slots); perOp != want {
				t.Errorf("kind deliveries_per_op sum to %v, want %v", perOp, want)
			}
			peak := tr.queuePeak
			if _, err := tracedSMR(tc.cfg, tr); err != nil {
				t.Fatal(err)
			}
			if tr.queuePeak != peak {
				t.Errorf("queue peak %d after a second identical run, %d after the first", tr.queuePeak, peak)
			}
		})
	}
}

// Every iteration at one seed repeats its counts exactly; the sweep's counts
// do not depend on the worker count.
func TestDeterminismGuard(t *testing.T) {
	cfg := logConfig(5, 2)
	a, err := smrIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smrIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.det != b.det {
		t.Fatalf("log iterations differ: %+v vs %+v", a.det, b.det)
	}
	var sweeps []iteration
	for _, workers := range []int{1, 2} {
		spec, err := sweepSpec(5, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		it, err := sweepIteration(spec)
		if err != nil {
			t.Fatal(err)
		}
		if it.ops != 8 || it.failed != 0 || it.unsafe {
			t.Fatalf("sweep iteration: %+v", it)
		}
		sweeps = append(sweeps, it)
	}
	if sweeps[0] != sweeps[1] {
		t.Fatalf("sweep differs across worker counts: %+v vs %+v", sweeps[0], sweeps[1])
	}
}

func TestVerdict(t *testing.T) {
	cfg := bulkConfig(1, 2)
	ok := smrOutcome{counts: counts{Entries: 2 * bulkBatch}, FullStream: true}
	if failed, unsafe := ok.verdict(cfg); failed || unsafe {
		t.Fatal("healthy outcome judged failed")
	}
	for name, tc := range map[string]struct {
		mutate func(*smrOutcome)
		unsafe bool
	}{
		"mismatch":    {func(o *smrOutcome) { o.Mismatches = 1 }, true},
		"duplicate":   {func(o *smrOutcome) { o.DuplicateCommands = 1 }, true},
		"dropped":     {func(o *smrOutcome) { o.SubmitDropped = 1 }, false},
		"gapped":      {func(o *smrOutcome) { o.FullStream = false }, false},
		"exhausted":   {func(o *smrOutcome) { o.Exhausted = true }, false},
		"short batch": {func(o *smrOutcome) { o.Entries-- }, false},
	} {
		o := ok
		tc.mutate(&o)
		failed, unsafe := o.verdict(cfg)
		if !failed || unsafe != tc.unsafe {
			t.Errorf("%s: failed=%v unsafe=%v, want failed and unsafe=%v", name, failed, unsafe, tc.unsafe)
		}
	}
}

// BENCHMARK.json names exactly the metrics the benchmark prints, with the
// same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "log", "--seed", "9007199254740992"},
		{"--workload", "log", "--trace", "2"},
		{"--workload", "log", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// The traced run's last line carries every per-layer metric.
func TestTracedRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full traced bulk iteration pair")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "bulk", "--seed", "2", "--seconds", "0.01", "--trace", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*bulkSlots || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result %+v", res)
	}
	for _, name := range []string{"rbc.frag.deliveries_per_op", "sim.self_ns_per_delivery", "smr.machine_ns_per_entry", "trace.overhead_share"} {
		if res.Metrics[name].Value == 0 {
			t.Errorf("%s reads 0 on bulk", name)
		}
	}
}

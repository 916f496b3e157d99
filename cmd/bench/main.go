// Command bench regenerates every table and figure of the evaluation
// (EXPERIMENTS.md) and drives the repository's other workloads. A single
// table, modes, dispatches them; each row names the flag that selects the
// mode, the flags the mode reads, and the function that runs it:
//
//	(none)          the experiments E1–E16 and ablations A1–A4: -experiment
//	                -runs -seed -quick -csv -workers
//	-scenarios      list the property and checkpoint-attack scenarios
//	-sweep a:b      one property scenario over a half-open seed range
//	-search family  scheduler-parameter search over a family's lattice
//	-smr slots      a replicated-log workload (the checkpoint plane)
//	-throughput k   the batch × pipeline committed-entries grid
//	-telemetry      per-kind wire metrics and phase histograms per family
//	-trace file     one traced run: causal JSONL dump and critical paths
//
// A mode is selected when its flag is set, whatever its value. Two selectors
// at once, or a set flag the selected row does not list (-json is global),
// is an error raised before any work starts: a forgotten selector never
// quietly launches the experiment battery, and no mode pretends to honour a
// flag it ignores. A negative -f means ⌊(n−1)/3⌋, the optimal resilience.
//
// Results are pure functions of the flags, identical at any -workers value
// (CI diffs them): wall-clock rates go to stderr, and -json records carry no
// timings or heap samples (E11's heap columns aside). -sweep and -search save their progress with
// -checkpoint; SIGINT or a -stop-after budget stops them cleanly, and
// -resume continues to a result byte-identical to an uninterrupted run.
// -no-prune and -window change only what correct nodes retain, never what
// they decide (CI diffs the aggregates across them; see ARCHITECTURE.md),
// and -coded switches dissemination to erasure-coded reliable broadcast,
// which moves wire bytes but never the digest lines.
//
// Examples:
//
//	bench -quick                           # every experiment, smoke size
//	bench -experiment E6 -runs 100 -csv    # one experiment, machine-readable
//	bench -quick -json > BENCH_seed.json   # committed baseline snapshot
//	bench -sweep 1:10001 -n 64 -scenario equivocation-rush \
//	      -checkpoint ck.json [-resume]    # 10k-seed frontier sweep
//	bench -sweep 1:101 -n 64 -scenario straggler-prune -no-prune
//	bench -search lossy -n 5 -seeds 1:4 -json
//	bench -smr 64 -n 16 -ckpt-every 8 -coded          # same digests, fewer bytes
//	bench -throughput 64 -n 16 -batch 1,8 -pipeline 2
//	bench -telemetry -n 16 -runs 5 -json > telemetry.json
//	bench -trace run.jsonl -n 16 -seed 7
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// flags holds every parsed flag; the run functions read it directly.
type flags struct {
	experiment          string
	runs, workers       int
	seed                int64
	quick, csv, json    bool
	scenarios           bool
	sweep, scenario     string
	n, f                int
	checkpoint          string
	resume, noPrune     bool
	every               int
	stopAfter           int64
	window              int
	search, seeds       string
	descend             bool
	throughput          int
	batch, pipeline     string
	telemetry           bool
	trace               string
	smr, ckptEvery      int
	coded, restart      bool
	ckptDir, ckptAttack string
}

// newFlagSet binds every bench flag to its field of fl.
func newFlagSet(fl *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&fl.experiment, "experiment", "", "run a single experiment (E1..E16, A1..A4); empty = all")
	fs.IntVar(&fl.runs, "runs", 0, "repetitions per configuration (0 = default)")
	fs.Int64Var(&fl.seed, "seed", 1, "base seed")
	fs.BoolVar(&fl.quick, "quick", false, "shrink sweeps for a fast smoke run")
	fs.BoolVar(&fl.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&fl.json, "json", false, "emit JSON instead of aligned tables")
	fs.IntVar(&fl.workers, "workers", 0, "sweep worker goroutines (0 = all cores, 1 = serial; results identical)")

	fs.StringVar(&fl.sweep, "sweep", "", "streaming property sweep over seed range seedA:seedB (half-open)")
	fs.IntVar(&fl.n, "n", 16, "-sweep: system size")
	fs.IntVar(&fl.f, "f", -1, "-sweep: fault bound (negative = ⌊(n−1)/3⌋, the optimal resilience; 0 = fault-free)")
	fs.StringVar(&fl.scenario, "scenario", "equivocation-rush", "-sweep: adversarial scenario (see -scenarios)")
	fs.BoolVar(&fl.scenarios, "scenarios", false, "list the property scenarios and exit")
	fs.StringVar(&fl.checkpoint, "checkpoint", "", "-sweep: checkpoint manifest path (periodic + final saves)")
	fs.BoolVar(&fl.resume, "resume", false, "-sweep: resume from -checkpoint")
	fs.IntVar(&fl.every, "every", 0, "-sweep: runs between checkpoint writes (0 = default)")
	fs.Int64Var(&fl.stopAfter, "stop-after", 0, "-sweep: stop after this many runs this invocation, saving a checkpoint (0 = run to completion)")
	fs.BoolVar(&fl.noPrune, "no-prune", false, "-sweep: disable per-round state pruning in the correct nodes (memory comparison; behaviour-neutral)")
	fs.IntVar(&fl.window, "window", 0, "-sweep/-smr/-throughput: per-round retention window of the correct nodes (0 = default 1; behaviour-neutral, aggregates identical at any size)")

	fs.StringVar(&fl.search, "search", "", "scheduler-parameter search mode: walk a family's parameter lattice hunting liveness cliffs (see internal/search families)")
	fs.StringVar(&fl.seeds, "seeds", "1:9", "-search: seed block seedA:seedB (half-open) every point is scored over")
	fs.BoolVar(&fl.descend, "descend", false, "-search: coordinate descent instead of the exhaustive grid")

	fs.IntVar(&fl.throughput, "throughput", 0, "committed-entries throughput mode: entry target per grid point across the -batch × -pipeline grid")
	fs.StringVar(&fl.batch, "batch", "1,4,16", "-throughput: comma-separated batch sizes (commands per proposal body)")
	fs.StringVar(&fl.pipeline, "pipeline", "1,2", "-throughput: comma-separated dissemination pipeline depths")

	fs.BoolVar(&fl.telemetry, "telemetry", false, "telemetry mode: per-kind wire metrics and phase-latency histograms across the scheduler families, merged over a seed sweep (deterministic, diffable)")
	fs.StringVar(&fl.trace, "trace", "", "trace mode: run one traced uniform-schedule consensus run, write the causal JSONL event dump to this file, and print the decision critical-path summary")

	fs.IntVar(&fl.smr, "smr", 0, "run a replicated-log workload of this many slots (the checkpoint/state-transfer mode)")
	fs.BoolVar(&fl.coded, "coded", false, "-smr/-throughput: erasure-coded dissemination (AVID-style coded RBC); committed digests are identical either way, wire bytes drop")
	fs.IntVar(&fl.ckptEvery, "ckpt-every", 0, "-smr/-throughput: checkpoint cadence in slots (0 = checkpointing off); committed digests are identical either way")
	fs.BoolVar(&fl.restart, "restart", false, "-smr: kill the last replica mid-run and revive it empty (restart-catchup; requires -ckpt-every)")
	fs.StringVar(&fl.ckptDir, "ckpt-dir", "", "-smr: durable checkpoint store directory (replicas persist and, on a rerun over the same directory, boot from their records; requires -ckpt-every)")
	fs.StringVar(&fl.ckptAttack, "ckpt-attack", "", "-smr: checkpoint-plane attack one replica mounts (see -scenarios; requires -ckpt-every); committed digests must match the attack-free run")
	return fs
}

// mode is one row of the dispatch table: the flag that selects it ("" for
// the experiments, the default), the other flags it reads (-json is
// global), and its run function.
type mode struct {
	flag    string
	accepts string
	run     func(io.Writer, *flags) error
}

var modes = []mode{
	{"", "experiment runs seed quick csv workers", runExperiments},
	{"scenarios", "", listScenarios},
	{"sweep", "n f scenario checkpoint resume every stop-after no-prune window workers", runSweep},
	{"search", "n f seeds descend checkpoint resume stop-after workers", runSearch},
	{"smr", "n f seed ckpt-every window restart ckpt-dir ckpt-attack coded", runSMRCmd},
	{"throughput", "n f seed batch pipeline ckpt-every window workers coded", runThroughputCmd},
	{"telemetry", "n f seed runs workers", runTelemetryCmd},
	{"trace", "n f seed", runTraceCmd},
}

func (m mode) name() string {
	if m.flag == "" {
		return "the experiments (select a mode)"
	}
	return "-" + m.flag
}

func run(args []string, out io.Writer) error {
	var fl flags
	fs := newFlagSet(&fl)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fl.json && fl.csv {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	set := map[string]bool{}
	var names []string // in lexical order, so the first stray flag is named
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		names = append(names, f.Name)
	})
	m := modes[0]
	for _, row := range modes[1:] {
		if !set[row.flag] {
			continue
		}
		if m.flag != "" {
			return fmt.Errorf("-%s and -%s are mutually exclusive", m.flag, row.flag)
		}
		m = row
	}
	for _, name := range names {
		if name != m.flag && name != "json" && !slices.Contains(strings.Fields(m.accepts), name) {
			return fmt.Errorf("-%s does not apply to %s", name, m.name())
		}
	}
	switch {
	case set["smr"] && fl.smr <= 0:
		return fmt.Errorf("-smr wants a positive slot count, got %d", fl.smr)
	case set["throughput"] && fl.throughput <= 0:
		return fmt.Errorf("-throughput wants a positive entry target, got %d", fl.throughput)
	case set["sweep"] && fl.sweep == "", set["search"] && fl.search == "", set["trace"] && fl.trace == "":
		return fmt.Errorf("-%s wants a non-empty value", m.flag)
	case set["telemetry"] && !fl.telemetry, set["scenarios"] && !fl.scenarios:
		return fmt.Errorf("-%s=false selects no mode; omit it", m.flag)
	case fl.stopAfter > 0 && fl.checkpoint == "":
		// Catch this before hours of work are discarded, not after.
		return fmt.Errorf("-stop-after requires -checkpoint (stopping without one loses all progress)")
	}
	if fl.f < 0 {
		fl.f = quorum.MaxByzantine(fl.n)
	}
	return m.run(out, &fl)
}

// runExperiments runs the experiment battery (or the one -experiment names)
// and renders each table as aligned text, CSV or JSON.
func runExperiments(out io.Writer, fl *flags) error {
	opts := experiments.Options{Runs: fl.runs, Seed: fl.seed, Quick: fl.quick, Workers: fl.workers}

	var list []experiments.Experiment
	if fl.experiment != "" {
		e, err := experiments.ByID(fl.experiment)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	} else {
		list = experiments.All()
	}

	// jsonTable is the stable machine-readable form of one experiment,
	// recorded by BENCH_seed.json as the repository's baseline snapshot.
	type jsonTable struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Table   string     `json:"table"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	var jsonTables []jsonTable

	for _, e := range list {
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case fl.json:
			jsonTables = append(jsonTables, jsonTable{
				ID: e.ID, Title: e.Title, Table: tbl.Title,
				Headers: tbl.Headers, Rows: tbl.Rows(),
			})
		case fl.csv:
			fmt.Fprintf(out, "# %s: %s\n%s\n", e.ID, e.Title, tbl.CSV())
		default:
			fmt.Fprintf(out, "%s\n(%s in %v)\n\n", tbl.Render(), e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if fl.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonTables)
	}
	return nil
}

// runSMRCmd executes one replicated-log workload (the checkpoint mode). The
// "digest" lines are the byte-stable comparison surface: CI runs the same
// workload with -ckpt-every on and off and diffs them — checkpointing must
// move memory, never what commits.
func runSMRCmd(out io.Writer, fl *flags) error {
	cfg := runner.SMRConfig{
		N: fl.n, F: fl.f,
		Slots:           fl.smr,
		Commands:        8,
		CheckpointEvery: fl.ckptEvery,
		Window:          fl.window,
		Coin:            runner.CoinCommon,
		Seed:            fl.seed,
		CkptDir:         fl.ckptDir,
		Coded:           fl.coded,
	}
	if fl.restart {
		if fl.ckptEvery <= 0 {
			return fmt.Errorf("-restart requires -ckpt-every (a restarted replica can only catch up via state transfer)")
		}
		cfg.Restart = &runner.SMRRestart{CrashAfter: 80 * fl.n, ReviveAfter: 160 * fl.n}
	}
	if fl.ckptDir != "" && fl.ckptEvery <= 0 {
		return fmt.Errorf("-ckpt-dir requires -ckpt-every (there is nothing to persist without checkpoints)")
	}
	if fl.ckptAttack != "" {
		if fl.ckptEvery <= 0 {
			return fmt.Errorf("-ckpt-attack requires -ckpt-every (the attacks target the checkpoint plane)")
		}
		attack, err := adversary.ParseCkptAttack(fl.ckptAttack)
		if err != nil {
			return err
		}
		cfg.Attack = attack
		cfg.Byzantine = 1
	}
	res, err := runner.RunSMR(cfg)
	if err != nil {
		return err
	}
	switch {
	case res.Exhausted:
		return fmt.Errorf("smr workload exhausted its delivery budget at %d deliveries", res.Deliveries)
	case res.Mismatches > 0:
		return fmt.Errorf("smr workload: %d cross-replica log mismatches (agreement violation)", res.Mismatches)
	case !res.FullStream:
		return fmt.Errorf("smr workload: reference entry stream gapped; digests void")
	}
	if fl.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			N           int    `json:"n"`
			F           int    `json:"f"`
			Slots       int    `json:"slots"`
			Seed        int64  `json:"seed"`
			CkptEvery   int    `json:"ckptEvery"`
			LogDigest   string `json:"logDigest"`
			StateDigest string `json:"stateDigest"`
			Cut         int    `json:"certifiedCut"`
			LogRetained int    `json:"logRetained"`
			RBCRecords  int    `json:"rbcRecords"`
			RBCBytes    int    `json:"rbcDigestBytes"`
			DealerSlots int    `json:"dealerSlots"`
			Transfers   int    `json:"transfers"`
			VictimDone  int    `json:"victimCommitted"`
			Restored    int    `json:"restoredCuts"`
			StoreErrors int    `json:"storeErrors"`
			Retries     int    `json:"transferRetries"`
			Stale       int    `json:"staleResponses"`
			Unverified  int    `json:"unverifiableResponses"`
			Deliveries  int    `json:"deliveries"`
			Dropped     int    `json:"dropped"`
			Spoofed     int    `json:"spoofed"`
			Coded       bool   `json:"coded"`
			WireBytes   int64  `json:"wireBytes"`
		}{fl.n, fl.f, fl.smr, fl.seed, fl.ckptEvery,
			fmt.Sprintf("%016x", res.LogDigest), fmt.Sprintf("%016x", res.StateDigest),
			res.CertifiedCut, res.LogRetained, res.RBCRecords, res.RBCDigestBytes,
			res.DealerSlots, res.Transfers, res.VictimCommitted,
			res.RestoredCuts, res.StoreErrors, res.TransferRetries,
			res.StaleResponses, res.UnverifiableResponses, res.Deliveries,
			res.Dropped, res.Spoofed,
			fl.coded, res.WireBytes})
	}
	fmt.Fprintf(out, "smr workload: n=%d f=%d slots=%d seed=%d ckpt-every=%d window=%d restart=%v coded=%v\n",
		fl.n, fl.f, fl.smr, fl.seed, fl.ckptEvery, fl.window, fl.restart, fl.coded)
	fmt.Fprintf(out, "digest log @%d:   %016x\n", fl.smr, res.LogDigest)
	fmt.Fprintf(out, "digest state @%d: %016x\n", fl.smr, res.StateDigest)
	fmt.Fprintf(out, "residue: log-retained=%d rbc-records=%d rbc-bytes=%d dealer-slots=%d dealer-rounds=%d certified-cut=%d\n",
		res.LogRetained, res.RBCRecords, res.RBCDigestBytes, res.DealerSlots, res.DealerRounds, res.CertifiedCut)
	if fl.restart {
		fmt.Fprintf(out, "victim: transfers=%d base=%d committed=%d frontier=%d\n",
			res.Transfers, res.VictimBase, res.VictimCommitted, res.VictimSlot)
	}
	if fl.ckptDir != "" {
		fmt.Fprintf(out, "store: restored-cuts=%d store-errors=%d\n", res.RestoredCuts, res.StoreErrors)
	}
	if fl.ckptAttack != "" {
		fmt.Fprintf(out, "attack %s: installs=%d retries=%d stale=%d unverifiable=%d\n",
			fl.ckptAttack, res.TotalInstalls, res.TransferRetries, res.StaleResponses, res.UnverifiableResponses)
	}
	fmt.Fprintf(out, "deliveries=%d messages=%d wire-bytes=%d dropped=%d spoofed=%d\n",
		res.Deliveries, res.Messages, res.WireBytes, res.Dropped, res.Spoofed)
	return nil
}

// parseIntList parses a comma-separated list of positive integers (the
// -batch and -pipeline grid axes).
func parseIntList(name, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s wants positive values, got %d", name, v)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// runThroughputCmd executes one committed-entries throughput grid. Every
// field on stdout is deterministic — a pure function of (config, seed),
// bitwise identical at any -workers value, which is exactly what CI diffs.
// The wall-clock rate is telemetry and goes to stderr, where it cannot
// contaminate the byte-stable comparison surface.
func runThroughputCmd(out io.Writer, fl *flags) error {
	batches, err := parseIntList("-batch", fl.batch)
	if err != nil {
		return err
	}
	depths, err := parseIntList("-pipeline", fl.pipeline)
	if err != nil {
		return err
	}
	start := time.Now()
	points, err := runner.RunThroughput(runner.ThroughputConfig{
		N: fl.n, F: fl.f,
		Entries:         fl.throughput,
		Batches:         batches,
		Depths:          depths,
		CheckpointEvery: fl.ckptEvery,
		Window:          fl.window,
		Coin:            runner.CoinCommon,
		Coded:           fl.coded,
		Seed:            fl.seed,
		Workers:         fl.workers,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	total := 0
	for _, p := range points {
		if p.Exhausted {
			return fmt.Errorf("throughput point batch=%d depth=%d exhausted its delivery budget", p.Batch, p.Depth)
		}
		if p.Mismatches > 0 || p.SubmitDropped > 0 || p.DuplicateCommands > 0 {
			return fmt.Errorf("throughput point batch=%d depth=%d unhealthy: mismatches=%d dropped=%d duplicates=%d",
				p.Batch, p.Depth, p.Mismatches, p.SubmitDropped, p.DuplicateCommands)
		}
		total += p.Entries
	}
	fmt.Fprintf(os.Stderr, "bench: throughput grid of %d points committed %d entries in %v wall (%.0f entries/sec; telemetry, not comparable)\n",
		len(points), total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	if fl.json {
		type pointJSON struct {
			Batch       int    `json:"batch"`
			Depth       int    `json:"depth"`
			Slots       int    `json:"slots"`
			Entries     int    `json:"entries"`
			Deliveries  int    `json:"deliveries"`
			Messages    int    `json:"messages"`
			EndTime     int64  `json:"endTime"`
			WireBytes   int64  `json:"wireBytes"`
			PerKDeliv   string `json:"entriesPerKDeliveries"`
			LogDigest   string `json:"logDigest"`
			StateDigest string `json:"stateDigest"`
		}
		rows := make([]pointJSON, 0, len(points))
		for _, p := range points {
			rows = append(rows, pointJSON{
				p.Batch, p.Depth, p.Slots, p.Entries, p.Deliveries, p.Messages,
				int64(p.EndTime), p.WireBytes, fmt.Sprintf("%.3f", p.EntriesPerKDeliveries()),
				fmt.Sprintf("%016x", p.LogDigest), fmt.Sprintf("%016x", p.StateDigest),
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			N         int         `json:"n"`
			F         int         `json:"f"`
			Entries   int         `json:"entries"`
			Seed      int64       `json:"seed"`
			CkptEvery int         `json:"ckptEvery"`
			Coded     bool        `json:"coded"`
			Points    []pointJSON `json:"points"`
		}{fl.n, fl.f, fl.throughput, fl.seed, fl.ckptEvery, fl.coded, rows})
	}
	fmt.Fprintf(out, "throughput: n=%d f=%d entries=%d seed=%d ckpt-every=%d coded=%v\n", fl.n, fl.f, fl.throughput, fl.seed, fl.ckptEvery, fl.coded)
	fmt.Fprintf(out, "%-6s %-6s %-7s %-8s %-11s %-14s %-13s %-12s %s\n",
		"batch", "depth", "slots", "entries", "deliveries", "ent/kdeliv", "virtual-time", "wire-bytes", "log digest")
	for _, p := range points {
		fmt.Fprintf(out, "%-6d %-6d %-7d %-8d %-11d %-14.3f %-13d %-12d %016x\n",
			p.Batch, p.Depth, p.Slots, p.Entries, p.Deliveries,
			p.EntriesPerKDeliveries(), int64(p.EndTime), p.WireBytes, p.LogDigest)
	}
	return nil
}

// listScenarios prints the property-scenario battery and the
// checkpoint-adversary battery (the -ckpt-attack names).
func listScenarios(out io.Writer, _ *flags) error {
	for _, sc := range runner.Scenarios() {
		kind := "consensus"
		if sc.RBC {
			kind = "rbc"
		}
		fmt.Fprintf(out, "%-18s %-10s %s\n", sc.Name, kind, sc.Doc)
	}
	for _, sc := range runner.CkptScenarios() {
		fmt.Fprintf(out, "%-18s %-10s -smr -ckpt-every … -ckpt-attack %s (scenario schedule: %v)\n",
			sc.Name, "ckpt", sc.Attack, sc.Sched)
	}
	return nil
}

// parseSeedRange parses "a:b" into the half-open range [a, b); name labels
// the owning flag in errors.
func parseSeedRange(name, s string) (runner.SeedRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return runner.SeedRange{}, fmt.Errorf("%s wants seedA:seedB, got %q", name, s)
	}
	from, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("%s seedA: %w", name, err)
	}
	to, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("%s seedB: %w", name, err)
	}
	r := runner.SeedRange{From: from, To: to}
	if r.Len() <= 0 {
		return runner.SeedRange{}, fmt.Errorf("%s range %v is empty", name, r)
	}
	return r, nil
}

// stopper returns the Stop hook of a resumable walk (-sweep runs, -search
// points): it fires on SIGINT, or once budget units have completed (0 = no
// budget, the -stop-after CI smoke), so the walk saves its checkpoint and
// returns. release unhooks the signal.
func stopper(budget int64) (stop func() bool, release func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	remaining := budget
	return func() bool {
		select {
		case <-sigc:
			return true
		default:
		}
		if budget > 0 {
			remaining--
			return remaining <= 0
		}
		return false
	}, func() { signal.Stop(sigc) }
}

// runSweep executes one streaming property sweep.
func runSweep(out io.Writer, fl *flags) error {
	seeds, err := parseSeedRange("-sweep", fl.sweep)
	if err != nil {
		return err
	}
	sc, err := runner.ScenarioByName(fl.scenario)
	if err != nil {
		return err
	}

	stop, release := stopper(fl.stopAfter)
	defer release()

	// Peak-heap tracking: sampled every few hundred completed runs plus
	// once at the end, so the E11 memory claim (pruned vs unpruned, see
	// -no-prune) is reproducible straight from the CLI. The sample goes to
	// the human-facing channels only — never into the JSON record, whose
	// bytes must stay machine-independent for resume-equality diffs.
	var peakHeap uint64
	sampleHeap := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peakHeap {
			peakHeap = m.HeapAlloc
		}
	}
	spec := runner.PropertySpec{
		N: fl.n, F: fl.f, Scenario: sc, Seeds: seeds,
		Workers: fl.workers, Checkpoint: fl.checkpoint,
		Every: fl.every, Resume: fl.resume, Stop: stop,
		DisablePruning: fl.noPrune,
		Window:         fl.window,
		Progress: func(done, total int64) {
			if done%256 == 0 {
				sampleHeap()
			}
			if done%1000 == 0 {
				fmt.Fprintf(os.Stderr, "bench: sweep %s n=%d: %d/%d\n", sc.Name, fl.n, done, total)
			}
		},
	}
	agg, err := runner.PropertySweep(spec)
	sampleHeap()
	pruning := "on"
	if fl.noPrune {
		pruning = "off"
	}
	heapLine := fmt.Sprintf("peak heap: %.2f MiB (runtime.ReadMemStats, sampled; pruning %s)", float64(peakHeap)/(1<<20), pruning)
	stopped := errors.Is(err, runner.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && fl.checkpoint == "" {
		return fmt.Errorf("sweep stopped after %d runs with no -checkpoint; progress lost", agg.Runs)
	}

	switch {
	case fl.json:
		if stopped {
			// Keep stdout parseable: structured stop record there, the
			// human notice on stderr.
			fmt.Fprintf(os.Stderr, "bench: sweep stopped after %d/%d runs; checkpoint saved to %s — rerun with -resume to continue\n",
				agg.Runs, seeds.Len(), fl.checkpoint)
		}
		// Heap numbers vary run to run; keep them off the byte-stable JSON.
		fmt.Fprintln(os.Stderr, "bench: "+heapLine)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Scenario   string            `json:"scenario"`
			N          int               `json:"n"`
			F          int               `json:"f"`
			Seeds      runner.SeedRange  `json:"seeds"`
			Stopped    bool              `json:"stopped,omitempty"`
			Completed  int64             `json:"completed,omitempty"`
			Checkpoint string            `json:"checkpoint,omitempty"`
			Aggregate  *runner.Aggregate `json:"aggregate"`
		}{sc.Name, fl.n, fl.f, seeds, stopped, stoppedAt(stopped, agg), stoppedCk(stopped, fl.checkpoint), agg}); err != nil {
			return err
		}
	case stopped:
		fmt.Fprintf(out, "sweep stopped after %d/%d runs (checks so far: %s); checkpoint saved to %s — rerun with -resume to continue\n%s\n",
			agg.Runs, seeds.Len(), agg.Checks.String(), fl.checkpoint, heapLine)
	default:
		title := fmt.Sprintf("sweep %s: n=%d f=%d seeds %v", sc.Name, fl.n, fl.f, seeds)
		fmt.Fprintf(out, "%schecks: %s\n%s\n", agg.Table(title).Render(), agg.Checks.String(), heapLine)
	}
	// Violations are never waived, whether the sweep completed or was
	// interrupted mid-way.
	if !agg.Checks.Clean() {
		return fmt.Errorf("property violations detected: %s", agg.Checks.String())
	}
	return nil
}

// runSearch executes one scheduler-parameter search (internal/search).
// Stdout — text or JSON — is a pure function of (family, n, f, seeds):
// bitwise identical at any -workers value and across kill/resume points,
// which is exactly what the CI determinism smoke diffs.
func runSearch(out io.Writer, fl *flags) error {
	seeds, err := parseSeedRange("-seeds", fl.seeds)
	if err != nil {
		return err
	}
	spec, err := search.FamilySpec(fl.search, fl.n, fl.f, seeds)
	if err != nil {
		return err
	}
	spec.Workers = fl.workers
	spec.Frontier = fl.checkpoint
	spec.Resume = fl.resume

	stop, release := stopper(fl.stopAfter)
	defer release()
	spec.Stop = stop
	spec.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "bench: search %s n=%d: point %d/%d\n", fl.search, fl.n, done, total)
	}

	walk := search.Grid
	mode := "grid"
	if fl.descend {
		walk = search.Descend
		mode = "descend"
	}
	res, err := walk(spec)
	stopped := errors.Is(err, search.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && fl.checkpoint == "" {
		return fmt.Errorf("search stopped after %d points with no -checkpoint; progress lost", len(res.Points))
	}
	if stopped {
		fmt.Fprintf(os.Stderr, "bench: search stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
			len(res.Points), fl.checkpoint)
	}

	if fl.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Family  string               `json:"family"`
			Mode    string               `json:"mode"`
			N       int                  `json:"n"`
			F       int                  `json:"f"`
			Seeds   runner.SeedRange     `json:"seeds"`
			Stopped bool                 `json:"stopped,omitempty"`
			Points  []search.PointResult `json:"points"`
			Best    search.PointResult   `json:"best"`
		}{fl.search, mode, fl.n, fl.f, seeds, stopped, res.Points, res.Best}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "search %s (%s): n=%d f=%d seeds %v — %s\n",
			fl.search, mode, fl.n, fl.f, seeds, search.FamilyDoc(fl.search))
		if stopped {
			fmt.Fprintf(out, "stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
				len(res.Points), fl.checkpoint)
		}
		fmt.Fprintf(out, "%-4s %-40s %-10s %-10s %-11s %-12s %-10s %s\n",
			"rank", "point", "undecided", "exhausted", "violations", "mean rounds", "mean time", "score")
		for i, p := range res.Points {
			fmt.Fprintf(out, "%-4d %-40s %-10d %-10d %-11d %-12.2f %-10.1f %.2f\n",
				i+1, p.Key, p.Runs-p.Decided, p.Exhausted, p.Violations, p.MeanRounds, p.MeanTime, p.Score)
		}
	}
	// A safety violation at any searched point is a finding, never waived.
	var violations int64
	for _, p := range res.Points {
		violations += p.Violations
	}
	if violations > 0 {
		return fmt.Errorf("search found %d property violations — inspect the frontier", violations)
	}
	return nil
}

// stoppedAt and stoppedCk populate the stop-record fields only for
// interrupted sweeps, so omitempty elides them on completion and the JSON of
// a resumed run stays byte-identical to an uninterrupted one's.
func stoppedAt(stopped bool, agg *runner.Aggregate) int64 {
	if !stopped {
		return 0
	}
	return agg.Runs
}

func stoppedCk(stopped bool, checkpoint string) string {
	if !stopped {
		return ""
	}
	return checkpoint
}

// runTelemetryCmd executes the telemetry mode: every scheduler family of the
// E16 comparison (uniform, reorder, adaptive-cliff — same adversary, coin,
// and inputs throughout) swept over a seed block with the telemetry plane
// attached, per-run sinks merged in index order. Every byte of the output is
// deterministic — a pure function of (flags, seed), bitwise identical at any
// -workers value and any GOMAXPROCS, which is exactly what the CI telemetry
// determinism smoke diffs.
func runTelemetryCmd(out io.Writer, fl *flags) error {
	if fl.runs <= 0 {
		fl.runs = 5
	}
	type familyRecord struct {
		Family     string     `json:"family"`
		N          int        `json:"n"`
		F          int        `json:"f"`
		Runs       int        `json:"runs"`
		Seed       int64      `json:"seed"`
		MeanRounds float64    `json:"meanRounds"`
		Messages   int        `json:"messages"`
		Deliveries int        `json:"deliveries"`
		Dropped    int        `json:"dropped"`
		Spoofed    int        `json:"spoofed"`
		WireBytes  int64      `json:"wireBytes"`
		Telemetry  sim.Report `json:"telemetry"`
	}
	var records []familyRecord
	for _, fam := range experiments.TelemetryFamilies() {
		cfgs := make([]runner.Config, fl.runs)
		for i := range cfgs {
			cfgs[i] = experiments.TelemetryConfig(fam, fl.n, fl.seed+int64(i))
			cfgs[i].F = fl.f
		}
		results, err := runner.Sweep(cfgs, fl.workers)
		if err != nil {
			return fmt.Errorf("telemetry family %s: %w", fam.Name, err)
		}
		merged := sim.NewTelemetry()
		rec := familyRecord{Family: fam.Name, N: fl.n, F: fl.f, Runs: fl.runs, Seed: fl.seed}
		var roundSum float64
		for _, r := range results {
			if len(r.Violations) > 0 {
				return fmt.Errorf("telemetry family %s seed %d: %d property violations", fam.Name, r.Config.Seed, len(r.Violations))
			}
			merged.Merge(r.Telemetry)
			roundSum += r.MeanRounds
			rec.Messages += r.Messages
			rec.Deliveries += r.Deliveries
			rec.Dropped += r.Dropped
			rec.Spoofed += r.Spoofed
			rec.WireBytes += r.WireBytes
		}
		rec.MeanRounds = roundSum / float64(len(results))
		rec.Telemetry = merged.Report()
		records = append(records, rec)
	}
	if fl.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	for _, rec := range records {
		fmt.Fprintf(out, "telemetry: family=%s n=%d f=%d runs=%d seed=%d\n",
			rec.Family, rec.N, rec.F, rec.Runs, rec.Seed)
		fmt.Fprintf(out, "  rounds=%.2f messages=%d deliveries=%d dropped=%d spoofed=%d wire-bytes=%d\n",
			rec.MeanRounds, rec.Messages, rec.Deliveries, rec.Dropped, rec.Spoofed, rec.WireBytes)
		for _, k := range rec.Telemetry.Kinds {
			fmt.Fprintf(out, "  kind %-10s sent=%-8d delivered=%-8d dropped=%-6d bytes=%-10d lat-p50=%d lat-p99=%d\n",
				k.Kind, k.Sent, k.Delivered, k.Dropped, k.Bytes, k.LatencyP50, k.LatencyP99)
		}
		for _, p := range rec.Telemetry.Phases {
			fmt.Fprintf(out, "  phase %-17s count=%-8d p50=%-6d p99=%-6d max=%d\n",
				p.Phase, p.Count, p.P50, p.P99, p.Max)
		}
	}
	return nil
}

// runTraceCmd executes the trace mode: one traced uniform-schedule run of the
// telemetry comparison's base configuration, its causal event stream dumped
// as JSONL (one event per line: time, kind, process, wire seq, causal parent
// seq — the format internal/obs and external tools consume), and the
// decision critical-path analysis printed to stdout. Both the file and
// stdout are deterministic: two runs of the same flags produce byte-identical
// dumps, which the CI trace smoke diffs.
func runTraceCmd(out io.Writer, fl *flags) error {
	fams := experiments.TelemetryFamilies()
	cfg := experiments.TelemetryConfig(fams[0], fl.n, fl.seed) // uniform schedule
	cfg.F = fl.f
	cfg.Telemetry = false
	cfg.Trace = true
	res, err := runner.Run(cfg)
	if err != nil {
		return err
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("trace run: %d property violations", len(res.Violations))
	}
	f, err := os.Create(fl.trace)
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	report := obs.Analyze(res.Recorder.Events())
	if fl.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Fprintf(out, "trace: n=%d f=%d seed=%d events=%d -> %s\n",
		cfg.N, cfg.F, fl.seed, len(res.Recorder.Events()), fl.trace)
	fmt.Fprint(out, report.String())
	return nil
}

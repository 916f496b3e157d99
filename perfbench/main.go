// Command perfbench is the repository's performance benchmark: three
// workloads (log, bulk, sweep) run through the runner entry points the
// bench CLI uses, measured end to end, plus a traced run that times each
// layer from outside. README.md gives the workloads' reasons and each
// metric's meaning and prediction. Run it from the repository root:
//
//	bash perfbench/run.sh --workload log --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// record, with the machine, the commit and the deterministic counts.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many fresh processes time the set-up; setup_s is
// their median.
const setupProbes = 5

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"deliveries_per_s", "1/s"},
	{"deliveries_per_op", "count"},
	{"wire_bytes_per_op", "B"},
	{"sim_time_per_op", "ticks"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mib", "MiB"},
	{"ok_op_share", "share"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run, with their units. A metric
// the workload's traced run does not take reads 0.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"sim.self_ns_per_delivery", "ns"},
		{"sim.queue_peak", "count"},
		{"sim.scheduler_ns_per_send", "ns"},
		{"wire.size_ns_per_send", "ns"},
		{"runner.observe_ns_per_delivery", "ns"},
	}
	for _, s := range kindSplits {
		m = append(m,
			struct{ name, unit string }{s.name + ".deliveries_per_op", "count"},
			struct{ name, unit string }{s.name + ".ns_per_delivery", "ns"})
	}
	return append(m, []struct{ name, unit string }{
		{"coin.self_ns_per_op", "ns"},
		{"coin.calls_per_op", "count"},
		{"smr.machine_ns_per_entry", "ns"},
		{"smr.deliver_ns_p50", "ns"},
		{"smr.deliver_ns_p99", "ns"},
		{"smr.deliver_ns_mean", "ns"},
		{"runner.run_ms_p50", "ms"},
		{"runner.run_ms_p98", "ms"},
		{"runner.sweep_busy_share", "share"},
		{"trace.overhead_share", "share"},
	}...)
}()

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: log, bulk or sweep")
	seed := fl.Int64("seed", 1, "workload seed, |seed| < 2^53")
	seconds := fl.Float64("seconds", 10, "measuring time per run")
	traced := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	child := fl.Bool("setup-probe", false, "set up, print ready and exit (used to time set-up)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *child {
		if err := w.warm(); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced, Meta: machine()}
	var out result
	if *traced == 1 {
		out, err = runTraced(w, *seconds, &rec)
	} else {
		out, err = runMeasured(w, *name, *seed, *seconds, &rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result line: machine, deterministic counts and wall
// fields apart.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Meta     meta    `json:"meta"`
	// Deterministic holds one iteration's counts, identical across every
	// iteration and run at this seed.
	Deterministic counts `json:"deterministic"`
	// Wall holds everything read from a clock or the runtime.
	Wall map[string]any `json:"wall"`
	// Checks reports the guards: the determinism guard, the traced-run
	// equivalence, safety, and the failed-op share.
	Checks map[string]any `json:"checks"`
}

type meta struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

// machine describes where and what was measured. Commit comes from the
// build's VCS stamp (absent outside a git checkout); SourceDigest hashes
// the Go sources under the working directory, so a checkout without
// history is still identified.
func machine() meta {
	m := meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	m.SourceDigest = sourceDigest(".")
	return m
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runMeasured is the untraced run: set-up timed in fresh processes, then
// the workload's iteration repeated in this process for the given time.
func runMeasured(w *workload, name string, seed int64, seconds float64, rec *record) (result, error) {
	setups, err := probeSetup(name, seed)
	if err != nil {
		return result{}, err
	}
	if err := w.warm(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var (
		walls, allocs, cpus []float64
		attempted           int
		failed              int
		unsafe              bool
		deterministic       = true
		first               counts
		okOps               int
	)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuSeconds(&ru)
		t0 := time.Now()
		it, err := w.iterate()
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return result{}, err
		}
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return result{}, fmt.Errorf("getrusage: %w", err)
		}
		cpus = append(cpus, cpuSeconds(&ru)-cpu0)
		if len(walls) == 0 {
			first = it.det
			okOps = it.ops - it.failed
		} else if it.det != first {
			deterministic = false
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(it.ops))
		attempted += it.ops
		failed += it.failed
		unsafe = unsafe || it.unsafe
	}
	ops := float64(attempted / len(walls))
	wallMedian := median(walls)
	values := map[string]float64{
		"ops_per_s":          float64(okOps) / wallMedian,
		"deliveries_per_s":   float64(first.Deliveries) / wallMedian,
		"deliveries_per_op":  float64(first.Deliveries) / ops,
		"wire_bytes_per_op":  float64(first.WireBytes) / ops,
		"sim_time_per_op":    float64(first.SimTime) / ops,
		"alloc_bytes_per_op": median(allocs),
		"peak_rss_mib":       float64(ru.Maxrss) / 1024, // Linux reports KiB
		"ok_op_share":        1 - float64(failed)/float64(attempted),
		"setup_s":            median(setups),
	}
	out := result{Correct: deterministic && !unsafe, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		out.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	rec.Deterministic = first
	// iteration_cpu_s beside iteration_s shows when wall-clock noise is
	// the host's: an iteration the process spent descheduled reads more
	// wall than CPU time.
	rec.Wall = map[string]any{"iteration_s": walls, "iteration_cpu_s": cpus, "setup_s": setups, "metrics": values}
	rec.Checks = map[string]any{
		"deterministic":   deterministic,
		"safe":            !unsafe,
		"failed_op_share": float64(failed) / float64(attempted),
	}
	return out, nil
}

// cpuSeconds is the user plus system CPU time in ru.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// probeSetup times set-up in fresh processes: from starting the process to
// its "ready" line, which it prints where the first timed op would begin.
func probeSetup(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	var times []float64
	for range setupProbes {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0).Seconds()
		waitErr := cmd.Wait()
		if err := errors.Join(readErr, waitErr); err != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: %q, %v", line, err)
		}
		times = append(times, d)
	}
	return times, nil
}

// runTraced is the traced run: per-layer metrics from spans taken at each
// seam, next to untraced ops on the same input.
func runTraced(w *workload, seconds float64, rec *record) (result, error) {
	if err := w.warm(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr, err := w.traced(seconds)
	if err != nil {
		return result{}, err
	}
	out := result{
		Correct:   tr.equivalent && !tr.unsafe,
		Attempted: tr.attempted,
		Failed:    tr.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{Value: tr.layers[d.name], Unit: d.unit}
	}
	rec.Deterministic = tr.det
	rec.Wall = map[string]any{"metrics": tr.layers}
	rec.Checks = map[string]any{
		"equivalent":      tr.equivalent,
		"safe":            !tr.unsafe,
		"failed_op_share": float64(tr.failed) / float64(tr.attempted),
	}
	return out, nil
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
	"repro/internal/wire"
)

// The traced run. Replicated-log workloads rebuild RunSMR's stack from the
// public constructors with a timing wrapper at every seam; the sweep times
// each runner.Run of a serial pass. Either way the untraced op runs beside
// the traced one on the same input, and the two must produce the same
// counts and digests, or the per-layer numbers would describe another
// program.

// kindSplits names the layer credited with each payload kind a replica
// receives. A split's time is the whole Deliver span, so it includes the
// upcalls the delivery triggers (coin, state machine, OnCertified).
var kindSplits = []struct {
	kind types.Kind
	name string
}{
	{types.KindRBCSend, "rbc.send"},
	{types.KindRBCEcho, "rbc.echo"},
	{types.KindRBCReady, "rbc.ready"},
	{types.KindRBCFrag, "rbc.frag"},
	{types.KindRBCSum, "rbc.sum"},
	{types.KindDecide, "core.decide"},
	{types.KindCoinShare, "coin.share"},
	{types.KindCkptVote, "ckpt.vote"},
	{types.KindCkptRequest, "ckpt.request"},
	{types.KindCkptCert, "ckpt.cert"},
}

// tracedResult is what a traced run reports.
type tracedResult struct {
	layers    map[string]float64
	attempted int
	failed    int
	// equivalent is false when a traced op diverged from its untraced twin
	// or an untraced op from the first one.
	equivalent bool
	unsafe     bool
	det        counts
}

// smrTrace is the span and count state of traced replicated-log runs.
type smrTrace struct {
	*spans
	kindN     [types.KindCount]int64
	kindT     [types.KindCount]int64
	deliverT  []uint32 // every replica Deliver span, in ticks
	inflight  int64
	queuePeak int64
	applies   int64
}

func (t *smrTrace) delivered(m types.Message, d int64) {
	if k := m.Payload.Kind(); k.Valid() {
		t.kindN[k]++
		t.kindT[k] += d
	}
	t.deliverT = append(t.deliverT, uint32(min(d, math.MaxUint32)))
}

// tracedNode wraps a replica at the sim.Node seam. Done marks the pop of
// one queued event (the loop asks it of every destination), which is how
// the in-flight count falls.
type tracedNode struct {
	rep *smr.Replica
	t   *smrTrace
}

func (n *tracedNode) ID() types.ProcessID {
	n.t.enter(layerNode)
	id := n.rep.ID()
	n.t.exit()
	return id
}

func (n *tracedNode) Start() []types.Message {
	n.t.enter(layerNode)
	out := n.rep.Start()
	n.t.exit()
	return out
}

func (n *tracedNode) Deliver(m types.Message) []types.Message {
	n.t.enter(layerNode)
	out := n.rep.Deliver(m)
	n.t.delivered(m, n.t.exit())
	return out
}

func (n *tracedNode) Done() bool {
	n.t.inflight--
	n.t.enter(layerNode)
	done := n.rep.Done()
	n.t.exit()
	return done
}

func (n *tracedNode) Recycle(msgs []types.Message) {
	n.t.enter(layerNode)
	n.rep.Recycle(msgs)
	n.t.exit()
}

// tracedScheduler wraps the scheduler; every message it does not drop
// enters the queue.
type tracedScheduler struct {
	inner sim.Scheduler
	t     *smrTrace
}

func (s *tracedScheduler) Deliver(m types.Message, now sim.Time, seq uint64, rng *rand.Rand) sim.Time {
	s.t.enter(layerSched)
	at := s.inner.Deliver(m, now, seq, rng)
	s.t.exit()
	if at != sim.Drop {
		s.t.inflight++
		s.t.queuePeak = max(s.t.queuePeak, s.t.inflight)
	}
	return at
}

// tracedCoin wraps one slot's coin. It always offers Prune, forwarding it
// when the inner coin prunes, so the core's Pruner check sees the same
// behaviour.
type tracedCoin struct {
	inner coin.Coin
	t     *smrTrace
}

func (c *tracedCoin) Release(round int) []types.Message {
	c.t.enter(layerCoin)
	out := c.inner.Release(round)
	c.t.exit()
	return out
}

func (c *tracedCoin) HandleShare(from types.ProcessID, p *types.CoinSharePayload) {
	c.t.enter(layerCoin)
	c.inner.HandleShare(from, p)
	c.t.exit()
}

func (c *tracedCoin) Value(round int) (types.Value, bool) {
	c.t.enter(layerCoin)
	v, ok := c.inner.Value(round)
	c.t.exit()
	return v, ok
}

func (c *tracedCoin) Prune(below int) {
	if p, ok := c.inner.(coin.Pruner); ok {
		c.t.enter(layerCoin)
		p.Prune(below)
		c.t.exit()
	}
}

// tracedMachine wraps a replica's state machine, forwarding the snapshot
// calls checkpointing needs.
type tracedMachine struct {
	inner *smr.KVMachine
	t     *smrTrace
}

func (m *tracedMachine) Apply(cmd string) error {
	m.t.applies++
	m.t.enter(layerMachine)
	err := m.inner.Apply(cmd)
	m.t.exit()
	return err
}

func (m *tracedMachine) Snapshot() string {
	m.t.enter(layerMachine)
	s := m.inner.Snapshot()
	m.t.exit()
	return s
}

func (m *tracedMachine) Restore(snapshot string) error {
	m.t.enter(layerMachine)
	err := m.inner.Restore(snapshot)
	m.t.exit()
	return err
}

// logTail is RunSMR's observer: it tails every replica's log through
// LogSince into a canonical entry per position, and folds the reference
// replica's (index 0) entries into the log digest and a shadow machine,
// captured at the Slots boundary.
type logTail struct {
	slots      int
	reps       []*smr.Replica
	machine0   smr.Snapshotter
	next       []int
	gapped     bool
	canonical  map[entryKey]smr.Entry
	mismatches int
	refDigest  uint64
	refMachine *smr.KVMachine
	refCount   int
	digestAt   uint64
	stateAt    uint64
}

type entryKey struct{ slot, index int }

func (lt *logTail) capture() {
	lt.digestAt = lt.refDigest
	lt.stateAt = ckpt.Digest(lt.refMachine.Snapshot())
}

func (lt *logTail) drain(i int) {
	rep := lt.reps[i]
	if rep == nil {
		return
	}
	ents := rep.LogSince(lt.next[i])
	if len(ents) == 0 {
		if b := rep.Base(); b > lt.next[i] {
			// A state transfer installed a cut past the tail: the reference
			// chain re-seeds from the certificate, or the stream is gapped.
			if i == 0 && !lt.gapped && lt.refCount < lt.slots {
				cert, ok := rep.LatestCert()
				if ok && cert.Slot == b && b <= lt.slots &&
					lt.refMachine.Restore(lt.machine0.Snapshot()) == nil {
					lt.refDigest = cert.LogDigest
					lt.refCount = b
					if lt.refCount == lt.slots {
						lt.capture()
					}
				} else {
					lt.gapped = true
				}
			}
			lt.next[i] = b
		}
		return
	}
	if ents[0].Slot > lt.next[i] && i == 0 {
		lt.gapped = true
	}
	for idx, e := range ents {
		k := entryKey{e.Slot, e.Index}
		if have, ok := lt.canonical[k]; ok {
			if have != e {
				lt.mismatches++
			}
		} else {
			lt.canonical[k] = e
		}
		if i == 0 && !lt.gapped && e.Slot >= lt.refCount {
			lt.refDigest = ckpt.FoldEntry(lt.refDigest, e.Slot, e.Proposer, e.Command)
			if e.Command != "" && e.Command != smr.Noop {
				lt.refMachine.Apply(e.Command)
			}
			if idx == len(ents)-1 || ents[idx+1].Slot != e.Slot {
				lt.refCount = e.Slot + 1
				if lt.refCount == lt.slots {
					lt.capture()
				}
			}
		}
	}
	lt.next[i] = ents[len(ents)-1].Slot + 1
}

// tracedSMR rebuilds RunSMR for cfg with every seam wrapped and runs it.
// It covers the configurations the workloads use: all replicas live and
// honest, common coin, uniform schedule, checkpointing on, explicit budget.
func tracedSMR(cfg runner.SMRConfig, t *smrTrace) (smrOutcome, error) {
	if cfg.Coin != runner.CoinCommon || (cfg.Sched != 0 && cfg.Sched != runner.SchedUniform) ||
		cfg.Crashed != 0 || cfg.Restart != nil || cfg.SpareRotation || cfg.Attack != 0 ||
		cfg.CkptDir != "" || cfg.Telemetry || cfg.CheckpointEvery <= 0 || cfg.MaxDeliveries <= 0 {
		return smrOutcome{}, fmt.Errorf("traced rebuild does not cover config %+v", cfg)
	}
	spec, err := quorum.New(cfg.N, cfg.F)
	if err != nil {
		return smrOutcome{}, err
	}
	t.inflight = 0 // a new network starts with an empty queue
	net, err := sim.New(sim.Config{
		Scheduler:     &tracedScheduler{inner: sim.UniformDelay{Min: 1, Max: 20}, t: t},
		Seed:          cfg.Seed,
		MaxDeliveries: cfg.MaxDeliveries,
		Sizer: func(m types.Message) int {
			t.enter(layerSizer)
			n := wire.MessageSize(m)
			t.exit()
			return n
		},
	})
	if err != nil {
		return smrOutcome{}, err
	}
	peers := types.Processes(cfg.N)
	dealers := coin.NewDealerSet(spec, cfg.Seed+1)
	secret := []byte(fmt.Sprintf("smr-ckpt-%d", cfg.Seed))
	tail := &logTail{
		slots:      cfg.Slots,
		reps:       make([]*smr.Replica, cfg.N),
		next:       make([]int, cfg.N),
		canonical:  make(map[entryKey]smr.Entry, cfg.Slots),
		refDigest:  ckpt.InitialLogDigest,
		refMachine: smr.NewKVMachine(),
	}
	cuts := make([]int, cfg.N)
	for i, p := range peers {
		machine := &tracedMachine{inner: smr.NewKVMachine(), t: t}
		if i == 0 {
			tail.machine0 = machine
		}
		rcfg := smr.Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return &tracedCoin{inner: coin.NewCommon(p, peers, dealers.For(slot)), t: t}
			},
			Rotation:         peers,
			Machine:          machine,
			Window:           cfg.Window,
			Batch:            cfg.Batch,
			Depth:            cfg.Depth,
			Coded:            cfg.Coded,
			CheckpointEvery:  cfg.CheckpointEvery,
			CheckpointSecret: secret,
			MaxPendingCuts:   cfg.MaxPendingCuts,
			OnCertified: func(cut int) {
				t.enter(layerObserve)
				tail.drain(i)
				if cut > cuts[i] {
					cuts[i] = cut
					dealers.ReleaseBelow(slices.Min(cuts))
				}
				t.exit()
			},
		}
		if cfg.Commands > smr.DefaultQueueLimit {
			rcfg.QueueLimit = cfg.Commands
		}
		rep, err := smr.New(rcfg)
		if err != nil {
			return smrOutcome{}, err
		}
		tail.reps[i] = rep
		for c := 0; c < cfg.Commands; c++ {
			cmd := fmt.Sprintf("set k%d-%d v%d-%d", p, c, p, c)
			if pad := cfg.CommandBytes - len(cmd); pad > 0 {
				cmd += strings.Repeat("x", pad)
			}
			rep.Submit(cmd)
		}
		if err := net.Add(&tracedNode{rep: rep, t: t}); err != nil {
			return smrOutcome{}, err
		}
	}
	stop := func() bool {
		t.enter(layerObserve)
		done := true
		for i, rep := range tail.reps {
			tail.drain(i)
			if rep.Slot() < cfg.Slots {
				done = false
			}
		}
		t.exit()
		return done
	}
	t.enter(layerSim)
	stats, err := net.Run(stop)
	t.exit()
	if err != nil {
		return smrOutcome{}, err
	}
	t.enter(layerObserve)
	for i := range tail.reps {
		tail.drain(i)
	}
	t.exit()

	o := smrOutcome{
		counts: counts{
			Deliveries:  int64(stats.Delivered),
			Messages:    int64(stats.Sent),
			WireBytes:   stats.Bytes,
			SimTime:     int64(stats.End),
			LogDigest:   tail.digestAt,
			StateDigest: tail.stateAt,
		},
		Mismatches: tail.mismatches,
		FullStream: !tail.gapped && tail.refCount >= cfg.Slots,
		Exhausted:  stats.Exhausted,
	}
	seen := make(map[string]bool, len(tail.canonical))
	for k, e := range tail.canonical {
		if k.slot >= cfg.Slots {
			continue
		}
		o.Entries++
		if e.Command == "" || e.Command == smr.Noop {
			continue
		}
		if seen[e.Command] {
			o.DuplicateCommands++
		}
		seen[e.Command] = true
	}
	for _, rep := range tail.reps {
		o.SubmitDropped += rep.Dropped()
	}
	return o, nil
}

// traceSMR alternates untraced RunSMR ops with traced rebuilds of the same
// config for the given time (at least one pair), and reduces the traced
// spans to the per-layer metrics.
func traceSMR(cfg runner.SMRConfig, seconds float64) (*tracedResult, error) {
	t := &smrTrace{spans: newSpans()}
	res := &tracedResult{equivalent: true}
	var untracedS, tracedS []float64
	var iters int64
	start := time.Now()
	for iters == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		it, err := smrIteration(cfg)
		untracedS = append(untracedS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		o, err := tracedSMR(cfg, t)
		tracedS = append(tracedS, time.Since(t1).Seconds())
		if err != nil {
			return nil, err
		}
		if iters == 0 {
			res.det = it.det
		}
		if it.det != res.det || o.counts != it.det {
			res.equivalent = false
		}
		failed, unsafe := o.verdict(cfg)
		res.attempted += 2 * cfg.Slots
		res.failed += it.failed
		if failed {
			res.failed += cfg.Slots
		}
		res.unsafe = res.unsafe || it.unsafe || unsafe
		iters++
	}
	res.layers = t.metrics(iters*int64(cfg.Slots), iters*res.det.Deliveries)
	res.layers["trace.overhead_share"] = median(tracedS)/median(untracedS) - 1
	return res, nil
}

// metrics reduces the spans of traced runs that together committed ops
// slots and delivered deliveries messages.
func (t *smrTrace) metrics(ops, deliveries int64) map[string]float64 {
	m := zeroLayers()
	ns := func(l layer) float64 { return t.ns(t.total[l]) }
	m["sim.self_ns_per_delivery"] = perUnit(t.ns(t.self[layerSim]), float64(deliveries))
	m["sim.queue_peak"] = float64(t.queuePeak)
	m["sim.scheduler_ns_per_send"] = perUnit(ns(layerSched), float64(t.calls[layerSched]))
	m["wire.size_ns_per_send"] = perUnit(ns(layerSizer), float64(t.calls[layerSizer]))
	m["runner.observe_ns_per_delivery"] = perUnit(ns(layerObserve), float64(deliveries))
	for _, s := range kindSplits {
		m[s.name+".deliveries_per_op"] = perUnit(float64(t.kindN[s.kind]), float64(ops))
		m[s.name+".ns_per_delivery"] = perUnit(t.ns(t.kindT[s.kind]), float64(t.kindN[s.kind]))
	}
	m["coin.self_ns_per_op"] = perUnit(t.ns(t.self[layerCoin]), float64(ops))
	m["coin.calls_per_op"] = perUnit(float64(t.calls[layerCoin]), float64(ops))
	m["smr.machine_ns_per_entry"] = perUnit(ns(layerMachine), float64(t.applies))
	d := slices.Clone(t.deliverT)
	slices.Sort(d)
	var sum float64
	for _, v := range d {
		sum += float64(v)
	}
	m["smr.deliver_ns_p50"] = t.nsPerTick * quantile(d, 0.50)
	m["smr.deliver_ns_p99"] = t.nsPerTick * quantile(d, 0.99)
	m["smr.deliver_ns_mean"] = t.nsPerTick * perUnit(sum, float64(len(d)))
	return m
}

// traceSweep times, for the given time (at least once), three passes over
// the sweep's seeds: the parallel untraced op, the same op on one worker,
// and a serial pass timing each runner.Run. All three must agree.
func traceSweep(spec runner.SweepSpec, seconds float64) (*tracedResult, error) {
	serial := spec
	serial.Workers = 1
	res := &tracedResult{equivalent: true}
	var runMs []float64
	var busy, parallel float64
	var serialS, tracedS []float64
	start := time.Now()
	for len(tracedS) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		par, err := sweepIteration(spec)
		parallel += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ser, err := sweepIteration(serial)
		serialS = append(serialS, time.Since(t1).Seconds())
		if err != nil {
			return nil, err
		}
		var tr iteration
		t2 := time.Now()
		for i := int64(0); i < spec.Seeds.Len(); i++ {
			cfg := spec.Cfg
			cfg.Seed = spec.Seeds.From + i
			r0 := time.Now()
			out, err := runner.Run(cfg)
			d := time.Since(r0).Seconds()
			if err != nil {
				return nil, err
			}
			busy += d
			runMs = append(runMs, d*1e3)
			sweepRun(&tr, out)
		}
		tracedS = append(tracedS, time.Since(t2).Seconds())
		if len(tracedS) == 1 {
			res.det = par.det
		}
		for _, it := range []iteration{par, ser, tr} {
			if it.det != res.det || it.failed != par.failed {
				res.equivalent = false
			}
			res.attempted += it.ops
			res.failed += it.failed
			res.unsafe = res.unsafe || it.unsafe
		}
	}
	slices.Sort(runMs)
	res.layers = zeroLayers()
	res.layers["runner.run_ms_p50"] = quantile(runMs, 0.50)
	res.layers["runner.run_ms_p98"] = quantile(runMs, 0.98)
	res.layers["runner.sweep_busy_share"] = busy / (float64(spec.Workers) * parallel)
	res.layers["trace.overhead_share"] = median(tracedS)/median(serialS) - 1
	return res, nil
}

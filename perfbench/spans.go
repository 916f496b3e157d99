package main

import (
	"math"
	"time"
)

// layer names a seam the traced run times from outside.
type layer int

const (
	layerSim     layer = iota // the sim event loop: net.Run minus every call out of it
	layerNode                 // sim.Node calls into a replica (Start, Deliver, Done, Recycle, ID)
	layerSched                // Scheduler.Deliver, once per send
	layerSizer                // the wire.MessageSize Sizer, once per send
	layerCoin                 // coin.Coin calls (Release, HandleShare, Value, Prune)
	layerMachine              // StateMachine calls (Apply, Snapshot, Restore)
	layerObserve              // the runner's log tailing: the stop callback and OnCertified
	layerCount
)

// frame is one open span.
type frame struct {
	layer layer
	start int64
	child int64 // time covered by the span's closed children
}

// spans accumulates per-layer span totals in clock ticks. A layer's self
// time is its spans' durations minus the part its child spans cover. Spans
// nest strictly (the sim loop is single-threaded), so a stack suffices.
type spans struct {
	nsPerTick float64
	stack     []frame
	total     [layerCount]int64 // inclusive
	self      [layerCount]int64 // exclusive
	calls     [layerCount]int64
}

// newSpans calibrates the tick clock against the monotonic clock.
func newSpans() *spans {
	t0, c0 := time.Now(), ticks()
	time.Sleep(20 * time.Millisecond)
	c1, d := ticks(), time.Since(t0)
	return &spans{nsPerTick: float64(d.Nanoseconds()) / float64(c1-c0)}
}

// ns converts ticks to nanoseconds.
func (s *spans) ns(t int64) float64 { return float64(t) * s.nsPerTick }

func (s *spans) enter(l layer) {
	s.stack = append(s.stack, frame{layer: l, start: ticks()})
}

// exit closes the innermost span and returns its duration in ticks.
func (s *spans) exit() int64 {
	end := ticks()
	top := len(s.stack) - 1
	f := s.stack[top]
	s.stack = s.stack[:top]
	d := end - f.start
	s.total[f.layer] += d
	s.self[f.layer] += d - f.child
	s.calls[f.layer]++
	if top > 0 {
		s.stack[top-1].child += d
	}
	return d
}

// perUnit divides, reading 0 for an empty denominator.
func perUnit(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the nearest-rank q-quantile of sorted (0 when empty).
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

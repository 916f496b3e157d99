//go:build !amd64

package main

import "time"

var tickEpoch = time.Now()

// ticks falls back to the monotonic clock, one tick per nanosecond.
func ticks() int64 { return int64(time.Since(tickEpoch)) }

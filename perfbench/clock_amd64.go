package main

// ticks reads the time-stamp counter. The span clock uses it because a
// span around a call of tens of nanoseconds needs a clock read far cheaper
// than the vDSO-less clock_gettime of small virtual machines (≈60–110 ns
// there, against ≈25 ns for RDTSC). The counter is invariant on CPUs with
// constant_tsc, which every amd64 host of the last decade has.
func ticks() int64

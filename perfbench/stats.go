package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeap forces a full collection and returns the bytes of live heap
// objects it left.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocMeter reads the cumulative heap allocation counters without
// allocating, so it can bracket a batch of calls being measured.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns cumulative (objects, bytes) allocated so far.
func (a *allocMeter) read() (uint64, uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// gcStats is the Go runtime's view of one phase: allocation volume, GC
// cycles and total stop-the-world pause.
type gcStats struct {
	allocBytes uint64
	cycles     uint32
	pause      time.Duration
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{allocBytes: m.TotalAlloc, cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

func (a gcStats) sub(b gcStats) gcStats {
	return gcStats{allocBytes: a.allocBytes - b.allocBytes, cycles: a.cycles - b.cycles, pause: a.pause - b.pause}
}

package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// summary describes a sample of one metric. With n ≤ 15 no tail
// percentile has ten samples beyond it, so none is reported: median,
// quartiles, extremes and n only.
type summary struct {
	Value float64 `json:"value"` // the median (live_peak_mb: the mean)
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
}

// summarize takes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does, so the numbers a results file
// holds can be checked against the driver's own arithmetic.
func summarize(unit string, values ...float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{Unit: unit, N: len(v)}
	if len(v) == 0 {
		return s
	}
	s.Min, s.Max = v[0], v[len(v)-1]
	if len(v) == 1 {
		s.Value, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	s.Q1, s.Value, s.Q3 = q(1), q(2), q(3)
	return s
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// The runtime/metrics series the bench reads.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtLiveBytes  = "/gc/heap/live:bytes" // what the last GC mark found live: no floating garbage
)

// runtimeCounters is a snapshot of the cumulative allocator and GC
// series; subtracting two gives the cost of the work between them.
type runtimeCounters struct {
	allocBytes, mallocs float64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		mallocs:    float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: rtLiveBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the live heap every 2 ms on its own goroutine and
// keeps the peak. Under the memory pass's tight GC a mark completes
// every few milliseconds of allocation, so polling misses little. It runs in the memory pass only; the timed pass has
// no sampler.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: liveHeapBytes()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, liveHeapBytes())
			}
		}
	}()
	return h
}

// peakBytes stops the sampler and returns the highest reading.
func (h *heapSampler) peakBytes() uint64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, liveHeapBytes())
}

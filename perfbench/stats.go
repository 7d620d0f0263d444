package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// bestWall is the wall_s estimate of a run: the fastest of its timed
// iterations. The benchmark's host is shared: its speed for one thread
// moves by up to a factor of two over regimes lasting seconds to tens of
// seconds, so a run's median time depends on how much of the run fell
// in a slow regime, and its fastest iteration much less. Interference
// only ever adds time, so the fastest iteration is the closest to the
// program's own cost.
func bestWall(walls []float64) float64 { return quantile(walls, 0) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPercentile picks the highest of a fixed ladder of percentiles
// that still has at least ten of n samples beyond it, so the tail
// figure is never a single outlier, and reports how many lie beyond.
// ok is false when even the median lacks ten.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, perMille := range []int{999, 990, 950, 900, 750, 500} {
		if beyond := n * (1000 - perMille) / 1000; beyond >= 10 {
			return float64(perMille) / 10, beyond, true
		}
	}
	return 0, 0, false
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// memSampler measures the memory a timed part uses, from the runtime's
// own accounting (so the benchmark stays inside its process): the bytes
// it allocates, and the peak live heap, the heap still reachable at the
// end of each collection, sampled every 2 ms. Allocation volume is
// deterministic for deterministic code and drives collection cost; the
// peak live heap depends on where collections fall and moves by about
// 10% between runs. Resident memory follows the live heap (with the
// default GC target, up to about twice it).
type memSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peak  uint64
	alloc uint64
}

// memUse is what one timed part used, in MiB.
type memUse struct{ allocMB, peakHeapMB float64 }

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readMem(s []metrics.Sample) (live, allocs uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startMem collects the garbage earlier work left, so the figures
// belong to the timed part alone, and samples until Stop.
func startMem() *memSampler {
	runtime.GC()
	m := &memSampler{stop: make(chan struct{})}
	s := append([]metrics.Sample(nil), memSamples...)
	m.peak, m.alloc = readMem(s)
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if v, _ := readMem(s); v > m.peak {
					m.peak = v
				}
			}
		}
	}()
	return m
}

// Stop ends sampling and returns what the timed part used. The
// collection flushes the per-processor allocation caches, whose counts
// the runtime publishes only when they are flushed.
func (m *memSampler) Stop() memUse {
	close(m.stop)
	m.done.Wait()
	runtime.GC()
	live, allocs := readMem(append([]metrics.Sample(nil), memSamples...))
	if live > m.peak {
		m.peak = live
	}
	return memUse{allocMB: float64(allocs-m.alloc) / (1 << 20), peakHeapMB: float64(m.peak) / (1 << 20)}
}

// leastAlloc is the alloc_mb estimate of a run: the smallest allocation
// of its timed parts. The planner's parallel sweep workers duplicate the
// work, and the allocation, of a fresh cache key they race on, so one
// chaos-cold Run of one seed allocated 86–99 MiB with thread timing;
// the smallest is the closest to the program's own allocation.
func leastAlloc(ms []memUse) float64 {
	least := math.Inf(1)
	for _, m := range ms {
		least = math.Min(least, m.allocMB)
	}
	return least
}

// reportMem sets the memory metrics: alloc_mb (in the result) and the
// median peak live heap of the timed parts ms (printed).
func (b *Bench) reportMem(alloc float64, ms []memUse) {
	var allocs, peak []float64
	for _, m := range ms {
		allocs = append(allocs, m.allocMB)
		peak = append(peak, m.peakHeapMB)
	}
	b.Set("alloc_mb", alloc, "MiB")
	b.Note("alloc per timed part min %.4g median %.4g max %.4g MiB", quantile(allocs, 0), median(allocs), quantile(allocs, 1))
	b.Set("peak_heap_mb", median(peak), "MiB")
}

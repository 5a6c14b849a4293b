package main

import (
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is the process's cumulative resource use at one instant.
type usage struct {
	cpu   float64 // user + system CPU seconds
	gcCPU float64 // CPU seconds the runtime spent on GC
	alloc uint64  // heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		gcCPU: s[1].Value.Float64(),
		alloc: s[0].Value.Uint64(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, gcCPU: u.gcCPU - o.gcCPU, alloc: u.alloc - o.alloc}
}

func (u usage) add(o usage) usage {
	return usage{cpu: u.cpu + o.cpu, gcCPU: u.gcCPU + o.gcCPU, alloc: u.alloc + o.alloc}
}

// heapWatch samples the live heap every few milliseconds and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak heap in bytes.
func (h *heapWatch) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

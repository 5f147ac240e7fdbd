package main

import (
	"context"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// hostSpan is one benchmark-timed call into a layer, in host seconds
// since the recorder started. Spans of one pass share the pass span as
// their parent.
type hostSpan struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Phase  string  `json:"phase"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder times layer calls. With keep set it also keeps every span in
// memory (the traced run); otherwise it only returns durations.
type recorder struct {
	keep  bool
	t0    time.Time
	spans []hostSpan
}

func newRecorder(keep bool) *recorder { return &recorder{keep: keep, t0: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span and returns its ID (0 when spans are not kept).
func (r *recorder) begin(parent int, name, layer, phase string) int {
	if !r.keep {
		return 0
	}
	r.spans = append(r.spans, hostSpan{ID: len(r.spans) + 1, Parent: parent,
		Name: name, Layer: layer, Phase: phase, Start: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id > 0 {
		r.spans[id-1].End = r.now()
	}
}

// call times fn as one span and returns its host seconds. In traced
// mode the call also carries a pprof "phase" label, so the CPU profile
// can tell measured work from the checks around it.
func (r *recorder) call(parent int, name, layer, phase string, fn func()) float64 {
	id := r.begin(parent, name, layer, phase)
	start := time.Now()
	if r.keep {
		pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(start).Seconds()
	r.end(id)
	return d
}

// rtCounters samples the runtime's cumulative allocation, GC and CPU
// counters.
type rtCounters struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtCounters {
	metrics.Read(rtSamples)
	v := func(i int) float64 {
		switch rtSamples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(rtSamples[i].Value.Uint64())
		case metrics.KindFloat64:
			return rtSamples[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// nearestRank returns the p-quantile (0 < p <= 1) of xs by nearest rank.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

const mib = 1 << 20

package main

import (
	"runtime/metrics"
	"time"
)

// probe is one reading of the clocks and counters a traced stage is timed
// with.
type probe struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64  // cumulative bytes allocated on the heap
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
	allCPU   float64 // cumulative CPU seconds available to the runtime
}

var probeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// span is what one stage cost.
type span struct {
	wall, cpu time.Duration
	alloc     uint64
}

// tracer times the stages of one epoch or query. A nil *tracer runs each
// stage without timing it, so the traced and untraced runs make the same
// calls in the same order.
type tracer struct {
	samples []metrics.Sample
	spans   map[string]span
	counts  map[string]float64 // per-layer values that are not timings
	start   probe
	total   span
	gcs     uint64
	gcShare float64
}

func newTracer() *tracer {
	t := &tracer{samples: make([]metrics.Sample, len(probeNames)), spans: map[string]span{}, counts: map[string]float64{}}
	for i, n := range probeNames {
		t.samples[i].Name = n
	}
	t.start = t.read()
	return t
}

func (t *tracer) read() probe {
	metrics.Read(t.samples)
	return probe{
		wall:     time.Now(),
		cpu:      selfCPU(),
		alloc:    t.samples[0].Value.Uint64(),
		gcCycles: t.samples[1].Value.Uint64(),
		gcCPU:    t.samples[2].Value.Float64(),
		allCPU:   t.samples[3].Value.Float64(),
	}
}

// stage runs fn, timing it under name when t is not nil.
func (t *tracer) stage(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	a := t.read()
	fn()
	b := t.read()
	t.spans[name] = span{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
}

// count records a per-layer value of this epoch that is not a timing.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

// finish closes the epoch's own span, which the stage spans should cover.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	b := t.read()
	t.total = span{wall: b.wall.Sub(t.start.wall), cpu: b.cpu - t.start.cpu, alloc: b.alloc - t.start.alloc}
	t.gcs = b.gcCycles - t.start.gcCycles
	if d := b.allCPU - t.start.allCPU; d > 0 {
		t.gcShare = (b.gcCPU - t.start.gcCPU) / d
	}
}

// unaccountedPct is the share of the epoch's wall time no stage covers.
func (t *tracer) unaccountedPct() float64 {
	var sum time.Duration
	for _, s := range t.spans {
		sum += s.wall
	}
	return 100 * float64(t.total.wall-sum) / float64(t.total.wall)
}

// setEpochLayers records the per-layer metrics every epoch workload shares,
// as medians over the traced epochs: each stage's wall time as <stage>_ms,
// the CPU and allocation of the stages that report them, the counts, and
// the epoch's allocation, GC and accounting totals.
func setEpochLayers(r *report, traced []*tracer, untracedWall, tracedWall []float64) {
	med := func(f func(t *tracer) float64) float64 { return medianOf(traced, f) }
	for stage := range traced[0].spans {
		r.set(stage+"_ms", med(func(t *tracer) float64 { return ms(t.spans[stage].wall) }))
		switch stage {
		case "core.process", "core.kernels":
			r.set(stage+"_cpu_ms", med(func(t *tracer) float64 { return ms(t.spans[stage].cpu) }))
		}
		switch stage {
		case "routing.propagate", "routing.import", "core.process":
			r.set(stage+"_alloc_mb", med(func(t *tracer) float64 { return mb(t.spans[stage].alloc) }))
		}
	}
	for name := range traced[0].counts {
		r.set(name, med(func(t *tracer) float64 { return t.counts[name] }))
	}
	r.set("epoch.alloc_mb", med(func(t *tracer) float64 { return mb(t.total.alloc) }))
	r.set("epoch.gc_cycles", med(func(t *tracer) float64 { return float64(t.gcs) }))
	r.set("epoch.gc_cpu_share", med(func(t *tracer) float64 { return t.gcShare }))
	r.set("epoch.unaccounted_pct", med((*tracer).unaccountedPct))
	r.set("trace.overhead_pct", 100*(median(tracedWall)-median(untracedWall))/median(untracedWall))
}

package opt

import (
	"dcelens/internal/ir"
	"dcelens/internal/metrics"
)

// metricsObserver aggregates per-pass timing and changed-rates into a
// metrics registry while observing a pipeline run — the performance dual of
// trace.Recorder's provenance. Per pass name it feeds two collectors:
//
//	pass.<name>          duration histogram (one observation per instance)
//	pass.<name>.changed  counter of instances that reported a change
//
// Unlike trace.Recorder it performs no IR scan — its per-pass cost is one
// cached map lookup plus an atomic histogram update, which is what keeps
// the fully-instrumented campaign path inside the overhead budget
// (BenchmarkMetricsOverhead). One observer serves one compilation, so the
// name cache stays goroutine-local; the registry behind it is shared and
// concurrency-safe.
type metricsObserver struct {
	reg      *metrics.Registry
	hists    map[string]*metrics.Histogram
	changed  map[string]*metrics.Counter
	visitedC *metrics.Counter
	skippedC *metrics.Counter
}

// MetricsObserver builds a per-compilation pass collector feeding reg. A
// nil registry yields a nil Observer, which Observers drops — restoring the
// unobserved fast path.
func MetricsObserver(reg *metrics.Registry) Observer {
	if reg == nil {
		return nil
	}
	return &metricsObserver{
		reg:     reg,
		hists:   map[string]*metrics.Histogram{},
		changed: map[string]*metrics.Counter{},
	}
}

// BeginPipeline counts the compilation into the pipeline.runs counter.
func (o *metricsObserver) BeginPipeline(m *ir.Module) {
	o.reg.Counter("pipeline.runs").Inc()
}

// AfterPass records the instance's wall time, changed flag, and its
// visited/skipped function counts (the campaign-wide skip rate backing the
// /progress endpoint).
func (o *metricsObserver) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st PassStats) {
	h := o.hists[pass]
	if h == nil {
		h = o.reg.Histogram("pass." + pass)
		o.hists[pass] = h
	}
	h.Observe(st.Duration)
	if st.Changed {
		c := o.changed[pass]
		if c == nil {
			c = o.reg.Counter("pass." + pass + ".changed")
			o.changed[pass] = c
		}
		c.Inc()
	}
	if st.FuncsVisited > 0 {
		o.visited().Add(int64(st.FuncsVisited))
	}
	if st.FuncsSkipped > 0 {
		o.skipped().Add(int64(st.FuncsSkipped))
	}
}

func (o *metricsObserver) visited() *metrics.Counter {
	if o.visitedC == nil {
		o.visitedC = o.reg.Counter(metrics.CounterPassVisited)
	}
	return o.visitedC
}

func (o *metricsObserver) skipped() *metrics.Counter {
	if o.skippedC == nil {
		o.skippedC = o.reg.Counter(metrics.CounterPassSkipped)
	}
	return o.skippedC
}

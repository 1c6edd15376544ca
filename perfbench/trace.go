package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"dcelens/internal/asm"
	"dcelens/internal/core"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/opt"
	"dcelens/internal/pipeline"
)

// The traced run records spans from the benchmark's own code, around its
// calls into each layer's public functions; nothing inside the program is
// instrumented. Spans stay in memory until the run ends.

// spanRec is one finished span on a track. Children are recorded before
// their parent closes, so a parent's self time is its duration minus the
// summed durations of the spans naming it as parent.
type spanRec struct {
	name   string
	parent int // index into the track's spans; -1 for the track root
	dur    time.Duration
}

// track is one goroutine's span stack. A nil *track records nothing, so
// the same code runs untraced for the overhead comparison and the timed
// service loop at the cost of a nil check.
type track struct {
	spans []spanRec
	open  []int
	start []time.Time
}

// begin opens a span and returns its index for end.
func (t *track) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.start = append(t.start, time.Now())
	return i
}

// end closes the innermost open span, which must be i.
func (t *track) end(i int) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	if t.open[n] != i {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[i].name))
	}
	t.spans[i].dur = time.Since(t.start[n])
	t.open, t.start = t.open[:n], t.start[:n]
}

// leaf records a finished child of the innermost open span whose duration
// was measured elsewhere (the pass manager times every pass instance).
func (t *track) leaf(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, spanRec{name: name, parent: t.open[len(t.open)-1], dur: d})
}

// tracer owns the tracks of one traced run and the counts recorded at the
// same layer boundaries.
type tracer struct {
	mu     sync.Mutex
	tracks []*track
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{counts: map[string]int64{}} }

// newTrack adds a track; nil tracers hand out nil tracks.
func (tr *tracer) newTrack() *track {
	if tr == nil {
		return nil
	}
	t := &track{}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// add bumps a named count. Nil-safe and safe for concurrent use.
func (tr *tracer) add(name string, n int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.counts[name] += n
	tr.mu.Unlock()
}

// selfTimes folds every track into per-name inclusive and self durations.
// Track roots (spans without a parent) are excluded from self: their self
// time is the benchmark's own loop, which reconciliation reports as gap.
func (tr *tracer) selfTimes() (incl, self map[string]time.Duration) {
	incl, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, t := range tr.tracks {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.dur
			}
		}
		for i, s := range t.spans {
			incl[s.name] += s.dur
			if s.parent >= 0 {
				self[s.name] += s.dur - child[i]
			}
		}
	}
	return incl, self
}

// schedulePasses lists the pass names the ten configurations schedule.
var schedulePasses = []string{
	"compact", "dce", "dse", "globaldce", "gvn", "inline", "instcombine",
	"ipsccp", "jumpthread", "licm", "localize-globals", "mem2reg", "sccp",
	"simplifycfg", "unroll", "unswitch", "vrp", "widen-stores",
}

// configs is the campaign's configuration set in corpus option order.
func configs() []*pipeline.Config {
	var cs []*pipeline.Config
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, l := range pipeline.Levels {
			cs = append(cs, pipeline.New(p, l))
		}
	}
	return cs
}

// configLabel is the metric-name form of a configuration ("gcc-O3").
func configLabel(c *pipeline.Config) string {
	p := "gcc"
	if c.Personality == pipeline.LLVM {
		p = "llvm"
	}
	return p + c.Level.String()
}

// passObserver stamps every pass instance the pass manager reports, at
// every schedule position and iteration, and checks the instances against
// the configuration's schedule.
type passObserver struct {
	t        *track
	tr       *tracer
	schedule []string
	seen     int // instances observed
	err      error
}

func (o *passObserver) BeginPipeline(*ir.Module) {}

func (o *passObserver) AfterPass(_ *ir.Module, pass string, idx, iter int, st opt.PassStats) {
	want := o.seen % len(o.schedule)
	if o.err == nil && !slices.Contains(schedulePasses, pass) {
		o.err = fmt.Errorf("pass instance %d: %s is not one of the scheduled pass names", o.seen, pass)
	}
	if o.err == nil && (idx != want || iter != o.seen/len(o.schedule) || pass != o.schedule[idx]) {
		o.err = fmt.Errorf("pass instance %d: saw %s at position %d iteration %d, schedule has %s at %d",
			o.seen, pass, idx, iter, o.schedule[want], want)
	}
	o.seen++
	o.t.leaf("opt.pass."+pass, st.Duration)
	o.tr.add("opt.pass."+pass+".instances", 1)
	if st.Changed {
		o.tr.add("opt.pass."+pass+".changed", 1)
	}
	o.tr.add("opt.funcs.visited", int64(st.FuncsVisited))
	o.tr.add("opt.funcs.skipped", int64(st.FuncsSkipped))
}

// finish checks that the observer saw whole schedule iterations only.
func (o *passObserver) finish(iters int) error {
	if o.err != nil {
		return o.err
	}
	if o.seen == 0 || o.seen%len(o.schedule) != 0 || o.seen/len(o.schedule) > iters {
		return fmt.Errorf("saw %d pass instances for a %d-pass schedule of at most %d iterations",
			o.seen, len(o.schedule), iters)
	}
	return nil
}

// irInstrs counts the instructions of a module's defined functions.
func irInstrs(m *ir.Module) int64 {
	var n int64
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// compileTraced is core.Compile driven layer by layer: lower.Lower, the
// configuration's pass pipeline under a pass observer, then asm.Emit and
// the marker scan. With a nil track it is core.Compile's work without the
// observer.
func compileTraced(t *track, tr *tracer, ins *instrument.Program, cfg *pipeline.Config) (*core.Compilation, error) {
	s := t.begin("lower")
	m, err := lower.Lower(ins.Prog)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add("lower.ir_instrs", irInstrs(m))
	}
	var obs opt.Observer
	var po *passObserver
	if t != nil {
		po = &passObserver{t: t, tr: tr, schedule: cfg.Schedule()}
		obs = po
	}
	s = t.begin("opt." + configLabel(cfg))
	err = cfg.CompileObserved(m, obs)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if po != nil {
		if err := po.finish(cfg.Iterations()); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		tr.add("opt.ir_instrs_out", irInstrs(m))
	}
	s = t.begin("asm")
	text := asm.Emit(m)
	alive := map[string]bool{}
	for _, name := range asm.SurvivingMarkers(text, instrument.IsMarker) {
		alive[name] = true
	}
	t.end(s)
	tr.add("asm.bytes", int64(len(text)))
	return &core.Compilation{Config: cfg, Module: m, Asm: text, Alive: alive}, nil
}

// layerMetrics turns a finished traced run into the per-layer metrics the
// compile layers share: self milliseconds per layer, per-config optimizer
// time, and per-pass time and changed ratio.
func (tr *tracer) layerMetrics(m *metricSet) {
	incl, self := tr.selfTimes()
	for _, name := range []string{"cgen", "instrument", "interp", "core.markercfg", "core.analyze", "lower", "asm"} {
		m.add(name+".ms", ms(self[name]), "ms")
	}
	for _, c := range configs() {
		name := "opt." + configLabel(c)
		m.add(name+".ms", ms(incl[name]), "ms")
	}
	for _, p := range schedulePasses {
		name := "opt.pass." + p
		m.add(name+".ms", ms(incl[name]), "ms")
		m.add(name+".changed_ratio", ratio(tr.counts[name+".changed"], tr.counts[name+".instances"]), "ratio")
	}
	visited, skipped := tr.counts["opt.funcs.visited"], tr.counts["opt.funcs.skipped"]
	m.add("opt.skip_ratio", ratio(skipped, visited+skipped), "ratio")
	for _, name := range []string{"cgen.nodes", "instrument.markers", "interp.calls", "lower.ir_instrs", "opt.ir_instrs_out", "asm.bytes"} {
		m.add(name, float64(tr.counts[name]), "count")
	}
}

// reconcile compares the summed layer self times against the traced wall
// time multiplied by the tracks that ran in parallel.
func (tr *tracer) reconcile(wall time.Duration, workers int) float64 {
	_, self := tr.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	budget := float64(wall) * float64(workers)
	return (budget - float64(sum)) / budget
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerExtras holds the per-layer metrics measured outside the replayed
// compile layers. Fields a workload does not exercise stay zero.
type layerExtras struct {
	checkpointMs, checkpointBytes                        float64
	occupancy, queueWaitMs, stallMs                      float64
	reduceChecks, reduceMsPerCheck, reduceAccept, capped float64
	bisectCompiles, bisectMs                             float64
	submitMs, queueMs, runMs                             float64
	allocsPerUnit, gcPauseMs                             float64
	gapRatio, overheadRatio                              float64
}

// maxGap is how far the summed layer self times may fall short of (or
// exceed) wall time × workers before the traced run counts as wrong.
const maxGap = 0.10

// reconciled reports whether the layers add back up to the traced wall.
func (x layerExtras) reconciled() bool {
	if x.gapRatio > maxGap || x.gapRatio < -maxGap {
		fmt.Fprintf(os.Stderr, "perfbench: layer self times leave %.1f%% of wall × workers unexplained\n", 100*x.gapRatio)
		return false
	}
	return true
}

// perLayer adds every per-layer metric, in BENCHMARK.json's order.
func perLayer(m *metricSet, tr *tracer, x layerExtras) {
	tr.layerMetrics(m)
	m.add("harness.checkpoint.ms", x.checkpointMs, "ms")
	m.add("harness.checkpoint.bytes", x.checkpointBytes, "bytes")
	m.add("sched.occupancy", x.occupancy, "ratio")
	m.add("sched.queue_wait_ms", x.queueWaitMs, "ms")
	m.add("sched.stall_ms", x.stallMs, "ms")
	m.add("reduce.checks", x.reduceChecks, "count")
	m.add("reduce.ms_per_check", x.reduceMsPerCheck, "ms")
	m.add("reduce.accept_ratio", x.reduceAccept, "ratio")
	m.add("reduce.capped", x.capped, "count")
	m.add("bisect.compiles", x.bisectCompiles, "count")
	m.add("bisect.ms", x.bisectMs, "ms")
	m.add("service.submit_ms", x.submitMs, "ms")
	m.add("service.queue_ms", x.queueMs, "ms")
	m.add("service.run_ms", x.runMs, "ms")
	m.add("runtime.allocs_per_unit", x.allocsPerUnit, "count")
	m.add("runtime.gc_pause_ms", x.gcPauseMs, "ms")
	m.add("reconcile.gap_ratio", x.gapRatio, "ratio")
	m.add("trace.overhead_ratio", x.overheadRatio, "ratio")
}

// Package opt implements the optimization passes shared by both compiler
// personalities.
//
// Most passes are function-scoped: a pure function of one body plus
// module-level facts. Interprocedural passes declare themselves
// module-scoped. The pass manager (ObservedPipeline) keeps one module
// generation and skips a pass instance when the module has not changed
// since the same pass's previous instance started: rerunning it would
// reproduce that instance's no-change outcome. The two personalities
// (gcc-sim, llvm-sim) differ only in which passes run, in what order, and
// with which Options knobs — exactly the axes along which the paper's
// bisected regressions vary (pass management, analysis precision, pass
// interactions). See internal/pipeline for the pass schedules and
// DESIGN.md for the mapping from knobs to paper findings.
package opt

import (
	"fmt"
	"reflect"
	"time"

	"dcelens/internal/ir"
)

// GlobalPropLevel selects the precision of the interprocedural global value
// analysis (the paper's central example of diverging compiler strength:
// GCC's analysis is flow-insensitive, Listing 4a/6a).
type GlobalPropLevel int

const (
	// GlobalPropNone disables the analysis.
	GlobalPropNone GlobalPropLevel = iota
	// GlobalPropNoStores folds loads of a non-escaping internal global only
	// when the module contains no store to it at all (GCC-like,
	// flow-insensitive).
	GlobalPropNoStores
	// GlobalPropSameConst additionally folds when every store writes the
	// same constant the initializer set (LLVM >= 3.8 behaviour).
	GlobalPropSameConst
	// GlobalPropFlowAware additionally lets loads that no store can reach
	// (on any CFG path) observe the initializer (LLVM <= 3.7 behaviour —
	// its loss is the regression in paper Listing 6a).
	GlobalPropFlowAware
)

// AliasLevel selects pointer-analysis precision.
type AliasLevel int

const (
	// AliasConservative: only identical-global and distinct-direct-global
	// queries are answered; anything involving loaded pointers may alias.
	AliasConservative AliasLevel = iota
	// AliasBaseObject: distinct base objects (globals, allocas) never
	// alias; loaded pointers may alias only address-taken objects.
	AliasBaseObject
)

// Options are the tunable knobs of the middle-end. Each personality/version
// is a distinct Options value; commits in the version history mutate single
// fields (see internal/pipeline/history.go).
type Options struct {
	GlobalProp GlobalPropLevel
	Alias      AliasLevel

	// FoldPtrCmpNonzeroOffset folds &a == &b+k for k != 0 (distinct
	// objects never compare equal). LLVM's EarlyCSE historically folded
	// only the k == 0 case — paper Listing 3.
	FoldPtrCmpNonzeroOffset bool

	// ShiftNonzeroRelation enables the VRP relation
	// "x<<y != 0 when x != 0 and the shift provably loses no bits"
	// (paper Listing 9a, fixed in GCC by 5f9ccf17de7).
	ShiftNonzeroRelation bool

	// ConstArrayLoadFold folds loads with unknown index from a never-written
	// array whose elements are all the same constant (paper Listing 9f).
	ConstArrayLoadFold bool

	// LoadForwarding enables store-to-load forwarding in GVN.
	LoadForwarding bool

	// WidenPointerLoopStores re-types pointer stores in loops (the
	// "vectorize pointer data as unsigned long" artifact of paper Listing
	// 9e); widened stores defeat store-to-load forwarding.
	WidenPointerLoopStores bool

	// AggressiveUnswitch unswitches loops even when the resulting select
	// pattern blocks later constant propagation (the LLVM loop-unswitching
	// regression of paper Listings 7/8a).
	AggressiveUnswitch bool

	// KeepSRAClones retains specialized argument-promotion clones that are
	// never called (the interprocedural-SRA leftover of paper Listing 9b).
	KeepSRAClones bool

	// InlineBudget is the maximum instruction count of an inlinee; 0
	// disables inlining.
	InlineBudget int

	// UnrollMaxTrip fully unrolls counted loops with trip count <= this;
	// 0 disables unrolling.
	UnrollMaxTrip int

	// RedundantStoreElim removes stores that provably rewrite the value a
	// location already holds (GCC misses this in paper Listings 1c/4a).
	RedundantStoreElim bool

	// GlobalLocalize demotes non-escaping internal globals whose accesses
	// are confined to main into stack slots (LLVM GlobalOpt's localization;
	// see LocalizeGlobals). The decisive llvm-sim advantage on Csmith-style
	// corpora.
	GlobalLocalize bool

	// PessimisticEscape makes the escape analysis assume every global
	// escapes (ablation hook: quantifies how much of the oracle's power
	// rests on knowing that opaque marker calls cannot clobber private
	// statics — see BenchmarkAblationNoEscapeAnalysis).
	PessimisticEscape bool

	// VerifyEachPass runs the SSA verifier after every pass instead of
	// once per ObservedPipeline call — what an assertions-enabled compiler
	// build does. Tests enable it; production-style campaigns rely on the
	// final verification plus the semantic execution checks.
	VerifyEachPass bool

	// remarks carries the remark sink and the executing pass instance's
	// position (see remark.go). Set only by ObservedPipeline, and only
	// when the observer implements RemarkSink; nil otherwise, so every
	// emission helper is one pointer comparison on the uninstrumented
	// path. Unexported: it is pipeline plumbing, not a personality knob,
	// and must never differ between Options values being compared.
	remarks *remarkCtx

	// scratch is the pipeline's reusable pass working memory (see
	// scratch.go). Set by ObservedPipeline, and forwarded to the cleanup
	// dce that vrp and instcombine run; passes reach it through
	// scratchOrFresh, which falls back to fresh allocation.
	scratch *scratch
}

// Pass is one transformation or analysis. Exactly one of Fn (function
// scope) or Run (module scope) is set.
type Pass struct {
	Name string

	// Fn is the function-scoped entry point; the pass manager sweeps it
	// over every defined function. A mutation Fn does not report through
	// its result must be flagged with ir.Func.MarkMutated, or the manager
	// may skip a later instance that would have seen it.
	Fn func(f *ir.Func, o Options) bool

	// Pre runs once per instance of a function-scoped pass, before the
	// sweep — module-level analyses the sweep consumes (escape
	// recomputation). Skipping an instance skips its Pre too, which is
	// sound only because the facts Pre maintains are a function of the
	// module: every reader of Global.Escapes/AddrExposed (dse, gvn and
	// licm through Pre; ipsccp, localize-globals and escape at entry)
	// recomputes them from scratch before reading, and the recomputation
	// resets every flag first. A fact that outlived the module state it
	// was computed from would make skipping unsound.
	Pre func(m *ir.Module, o Options)

	// Post runs after the sweep of a function-scoped pass — module-level
	// epilogues (GVN's cross-function store-to-load forwarding). It
	// reports whether it changed the module.
	Post func(m *ir.Module, o Options) bool

	// Run is the module-scoped entry point for interprocedural passes. It
	// reports whether it changed the module.
	Run func(m *ir.Module, o Options) bool
}

// PassStats describes one pass instance to an Observer: the changed flag,
// the wall time, and whether the pass manager ran or skipped it, counted
// in defined functions. An instance either visits every defined function
// or skips every one, so exactly one of the two counts is non-zero (both
// are zero on a module without bodies).
type PassStats struct {
	Changed  bool
	Duration time.Duration
	// FuncsVisited is the number of defined functions when the instance
	// ran, zero when it was skipped.
	FuncsVisited int
	// FuncsSkipped is the number of defined functions when the instance
	// was skipped, zero when it ran.
	FuncsSkipped int
}

// Observer watches pass execution inside an ObservedPipeline run. A nil
// observer disables observation at the cost of one pointer comparison per
// pass, so untraced compilations are indistinguishable from the
// pre-observer pipeline. internal/trace provides the standard
// implementation (per-pass profiles and marker provenance); the interface
// lives here, argument-only, so that trace can satisfy it without opt
// importing trace.
type Observer interface {
	// BeginPipeline sees the module before the first pass runs.
	BeginPipeline(m *ir.Module)
	// AfterPass sees the module after each pass instance: the pass name,
	// its position in the schedule, the iteration of the fixpoint loop,
	// and the instance's stats (changed flag, wall time, visited/skipped
	// function counts). Skipped instances still report, with zero visited
	// functions — the schedule shape an observer sees is independent of
	// skipping.
	AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st PassStats)
}

// multiObserver fans one observation out to several observers in order.
type multiObserver []Observer

func (mo multiObserver) BeginPipeline(m *ir.Module) {
	for _, o := range mo {
		o.BeginPipeline(m)
	}
}

func (mo multiObserver) AfterPass(m *ir.Module, pass string, scheduleIndex, iteration int, st PassStats) {
	for _, o := range mo {
		o.AfterPass(m, pass, scheduleIndex, iteration, st)
	}
}

// multiRemarkObserver is the composition used when at least one composed
// observer is a RemarkSink: it fans remarks out to the sinks while the
// embedded multiObserver fans out the pass observations. The wrapper
// itself implements RemarkSink, so sink-ness survives nested composition
// (the traced compile path re-composes an already-composed observer with
// the trace recorder). Plain multiObserver deliberately does NOT implement
// RemarkSink — otherwise remark emission would switch on whenever any
// observer (the ever-present harness watchdog, say) is attached.
type multiRemarkObserver struct {
	multiObserver
	sinks []RemarkSink
}

func (mo *multiRemarkObserver) Remark(r Remark) {
	for _, s := range mo.sinks {
		s.Remark(r)
	}
}

// Observers composes observers into one, dropping nils — including typed
// nils (a nil *trace.Recorder or *metricsObserver boxed into the
// interface), which would otherwise both survive the composition and crash
// on first call. Zero survivors yield a true nil Observer, preserving the
// unobserved fast path: ObservedPipeline's nil check short-circuits and an
// uninstrumented run pays no interface-call cost. A single survivor is
// returned unwrapped. When several survive and at least one implements
// RemarkSink, the composition forwards remarks to exactly those sinks —
// the others never see them (no cross-contamination). The harness chains
// its watchdog/fault observer with the trace recorder, the metrics pass
// collector, and the remark collector through this.
func Observers(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o == nil {
			continue
		}
		if v := reflect.ValueOf(o); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		out = append(out, o)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	var sinks []RemarkSink
	for _, o := range out {
		if s, ok := o.(RemarkSink); ok {
			sinks = append(sinks, s)
		}
	}
	if len(sinks) > 0 {
		return &multiRemarkObserver{out, sinks}
	}
	return out
}

// skipUnchanged turns instance skipping on. Tests turn it off to check
// that skipping never changes the pipeline's result.
var skipUnchanged = true

// pipeState is the skip bookkeeping of one ObservedPipeline call.
//
// Soundness of every skip rests on one property: a pass instance is a
// deterministic function of the module and Options. The generation moves
// whenever an instance reports a change or flags an unreported body
// mutation (ir.Func.MarkMutated). So while it has not moved since the
// previous instance of the same pass started, the module is the one that
// instance ran on, and that instance reported no change — else the
// generation would have moved. Rerunning the pass would reproduce that
// outcome, so skipping it preserves the final IR, the changed flags, and
// the iteration count bit-for-bit.
type pipeState struct {
	// pid maps schedule positions to dense pass identities (by name):
	// instances of the same pass at different schedule positions share
	// skip state, so a second instcombine right after an unchanged first
	// one is skipped.
	pid []int
	// gen is the module generation; it starts at 1 so that a zero in last
	// means "never ran".
	gen uint64
	// last holds, per pass identity, the generation at which its latest
	// executed instance started.
	last []uint64
}

func newPipeState(passes []Pass) *pipeState {
	ps := &pipeState{pid: make([]int, len(passes)), gen: 1}
	ids := make(map[string]int, len(passes))
	for i, p := range passes {
		id, ok := ids[p.Name]
		if !ok {
			id = len(ids)
			ids[p.Name] = id
		}
		ps.pid[i] = id
	}
	ps.last = make([]uint64, len(ids))
	return ps
}

// run executes the pass instance at schedule position i, or skips it when
// the module has not changed since the same pass's previous instance
// started. An executed function-scoped instance runs Pre, then Fn over
// every defined function, then Post.
func (ps *pipeState) run(m *ir.Module, p Pass, i int, o Options) PassStats {
	defined, gens := genSum(m)
	id := ps.pid[i]
	if skipUnchanged && ps.last[id] == ps.gen {
		return PassStats{FuncsSkipped: defined}
	}
	ps.last[id] = ps.gen
	var changed bool
	if p.Run != nil {
		changed = p.Run(m, o)
	} else {
		if p.Pre != nil {
			p.Pre(m, o)
		}
		changed = forEachDefined(m, func(f *ir.Func) bool { return p.Fn(f, o) })
		if p.Post != nil && p.Post(m, o) {
			changed = true
		}
	}
	if changed {
		ps.gen++
	} else if _, after := genSum(m); after != gens {
		ps.gen++ // a mutation the pass flagged but did not report
	}
	return PassStats{Changed: changed, FuncsVisited: defined}
}

// genSum counts the module's defined functions and totals their mutation
// generations.
func genSum(m *ir.Module) (defined int, gens uint64) {
	for _, f := range m.Funcs {
		if !f.External {
			defined++
			gens += f.Gen()
		}
	}
	return defined, gens
}

// ObservedPipeline runs passes in order until a fixpoint or maxIters
// repetitions of the whole schedule, whichever comes first, with obs
// attached to every pass instance; obs may be nil. Real pass managers run
// fixed schedules; iterating the schedule a couple of times approximates
// the repeated pass groups (e.g. instcombine/simplifycfg interleavings)
// that production pipelines contain.
func ObservedPipeline(m *ir.Module, o Options, passes []Pass, maxIters int, obs Observer) error {
	if maxIters < 1 {
		maxIters = 1
	}
	if obs != nil {
		obs.BeginPipeline(m)
		// An observer that is also a remark sink turns pass-side remark
		// emission on for this run; the shared context rides the Options
		// value into every pass invocation.
		if sink, ok := obs.(RemarkSink); ok {
			o.remarks = &remarkCtx{sink: sink}
		}
	}
	o.scratch = newPipelineScratch()
	ps := newPipeState(passes)
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range passes {
			var start time.Time
			if obs != nil {
				start = time.Now()
			}
			if o.remarks != nil {
				o.remarks.pass, o.remarks.index, o.remarks.iter = p.Name, i, iter
			}
			st := ps.run(m, p, i, o)
			if st.Changed {
				changed = true
			}
			if obs != nil {
				st.Duration = time.Since(start)
				obs.AfterPass(m, p.Name, i, iter, st)
			}
			if o.VerifyEachPass {
				if err := ir.Verify(m); err != nil {
					return fmt.Errorf("opt: after pass %s (iteration %d): %w", p.Name, iter, err)
				}
			}
		}
		if !changed {
			break
		}
	}
	if !o.VerifyEachPass {
		if err := ir.Verify(m); err != nil {
			return fmt.Errorf("opt: after pipeline: %w", err)
		}
	}
	return nil
}

// forEachDefined applies f to every function with a body and reports
// whether any call returned true.
func forEachDefined(m *ir.Module, f func(*ir.Func) bool) bool {
	changed := false
	for _, fn := range m.Funcs {
		if fn.External {
			continue
		}
		if f(fn) {
			changed = true
		}
	}
	return changed
}

package opt

import "dcelens/internal/ir"

// scratch is the working memory of one ObservedPipeline call. Passes take
// their per-function tables (lattices, use counts, worklists, dominator
// trees) from it instead of allocating them afresh for every function of
// every pass instance: those throwaway tables were a large share of a
// compilation unit's allocated bytes, and the collector's share of a
// campaign's CPU tracked them (DESIGN.md, "Middle-end performance").
//
// The ownership rules:
//   - ObservedPipeline creates one scratch per call and hands it to passes
//     through Options. It never crosses units or goroutines, and nothing a
//     pass returns or leaves in the IR points into it.
//   - A slot has one user at a time: a pass takes it for the function (or
//     module-level invocation) at hand and does not hold it across a call
//     to code that takes the same slot.
//   - Tables are handed out sized to the function's current ID bound, and
//     zeroed unless taken as dirty (the pass writes every entry before it
//     reads one). A value a pass creates mid-flight has a larger ID than
//     the bound, so readers of such values bounds-check (id < len) instead
//     of indexing blindly.
//   - Options without a scratch (a pass called directly, or the pipeline
//     with scratch sharing off) get a fresh one per call, so every table is
//     a new allocation: exactly the behaviour the shared scratch must
//     reproduce.
type scratch struct {
	// poison makes every hand-out fill the whole backing array with junk
	// before it zeroes the handed-out part. A dirty table then reads junk
	// wherever the pass forgot to write, and a holder still using a slot
	// after it was handed out again sees junk instead of plausible stale
	// state. Tests turn it on (SetScratch).
	poison bool

	// dom is the one dominator tree every dominance consumer rebuilds
	// (domTree); it is recomputed wholesale, so it is not poisoned.
	dom  ir.DomTree
	sccp sccpState
	gvn  gvnScratch
	vrp  []vrpSlot
	dce  struct {
		uses []int32
		dead []bool
		work []*ir.Instr
	}
	licm struct {
		defs     []bool      // definedInLoop
		snapshot []*ir.Instr // the block being hoisted from
	}
	// access holds buildAccessIndex's per-function chain tables.
	access struct {
		base  []*ir.Global
		chain []bool
		state []uint8
	}
	// escaping and exposed are computeEscapes' tables; aliasExposed
	// backs the AliasCtx a pass holds while it works on one function.
	escaping, exposed, aliasExposed []bool
}

// scratchMode selects how ObservedPipeline provisions pass scratch.
type scratchMode int

const (
	// scratchShared gives each ObservedPipeline call one scratch.
	scratchShared scratchMode = iota
	// scratchFresh gives none: every pass call allocates its own tables.
	scratchFresh
	// scratchPoisoned shares one scratch that poisons every hand-out.
	scratchPoisoned
)

// pipelineScratch is the mode ObservedPipeline uses. Tests switch it to
// check that sharing never changes the pipeline's result.
var pipelineScratch = scratchShared

// newPipelineScratch returns the scratch of one ObservedPipeline call; nil
// in scratchFresh mode.
func newPipelineScratch() *scratch {
	switch pipelineScratch {
	case scratchShared:
		return &scratch{}
	case scratchPoisoned:
		return &scratch{poison: true}
	}
	return nil
}

// scratchOrFresh returns the pipeline's scratch, or a fresh one when the
// pass runs outside a pipeline.
func (o Options) scratchOrFresh() *scratch {
	if o.scratch != nil {
		return o.scratch
	}
	return &scratch{}
}

// zeroed returns *buf resized to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](s *scratch, buf *[]T, n int) []T {
	b := dirty(s, buf, n)
	clear(b)
	return b
}

// dirty returns *buf resized to n elements whose contents are unspecified:
// stale from the slot's previous user, or junk when poisoning.
func dirty[T any](s *scratch, buf *[]T, n int) []T {
	b := *buf
	if cap(b) < n {
		// Headroom: passes keep creating values, so the ID bound of the
		// unit's largest function creeps up from instance to instance.
		b = make([]T, n, n+n/2)
	}
	if s.poison {
		j := junk[T]()
		full := b[:cap(b)]
		for i := range full {
			full[i] = j
		}
	}
	b = b[:n]
	*buf = b
	return b
}

// domTree returns f's dominator tree, rebuilt in the scratch's one tree:
// a tree obtained earlier from the same scratch is overwritten.
func (s *scratch) domTree(f *ir.Func) *ir.DomTree {
	s.dom.Rebuild(f)
	return &s.dom
}

// The junk objects poisoned pointer slots point at. Their negative IDs make
// any dense-table lookup through them panic.
var (
	junkBlock  = &ir.Block{ID: -1}
	junkInstr  = &ir.Instr{ID: -1, Block: junkBlock}
	junkGlobal = &ir.Global{Name: "<scratch junk>"}
)

// junk returns the poison value of a scratch element type: never the zero
// value, and for pointers an object no real IR refers to.
func junk[T any]() T {
	var v T
	switch p := any(&v).(type) {
	case *bool:
		*p = true
	case *int32:
		*p = -0x5a5a5a5
	case *uint8:
		*p = 0xa5
	case **ir.Instr:
		*p = junkInstr
	case **ir.Global:
		*p = junkGlobal
	case *lattice:
		*p = lattice{kind: latConstInt, i: -0x5a5a5a5a}
	case *vrpSlot:
		*p = vrpSlot{r: constR(-0x5a5a5a5a), set: true}
	default:
		panic("opt: scratch element type without a junk value")
	}
	return v
}

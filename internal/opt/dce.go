package opt

import (
	"fmt"

	"dcelens/internal/ir"
)

// DCE removes instructions whose results are unused and that have no side
// effects (including loads — MiniC loads cannot trap at the IR level).
// This is the sink transformation of the whole reproduction: every other
// pass exists to make more code eligible for this one and for SimplifyCFG's
// unreachable-block removal.
var DCE = Pass{Name: "dce", Fn: dceFunc}

func dceFunc(f *ir.Func, o Options) bool {
	if o.RemarksOn() {
		// Every kept external call is a Missed(side-effects) decision:
		// opaque side effects pin it regardless of use counts. Markers are
		// external calls, so this is what anchors each surviving marker's
		// nearest-miss chain — the first dce visit of any function with a
		// surviving marker records why dce itself cannot touch it.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && in.Callee.External {
					o.missed(f, "call "+in.Callee.Name, ReasonSideEffects,
						"external call: opaque side effects keep it live")
				}
			}
		}
	}
	// Use counts over the whole function, dense by instruction ID —
	// replacing the pointer-keyed maps that made this pass one of the
	// hottest allocation sites in the campaign.
	sc := o.scratchOrFresh()
	n := f.NumValues()
	uses := zeroed(sc, &sc.dce.uses, n)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				uses[a.ID]++
			}
		}
	}
	deletable := func(in *ir.Instr) bool {
		if in.HasSideEffects() {
			return false
		}
		if in.Op == ir.OpLoad || in.Op == ir.OpFreeze {
			return true // loads are pure in MiniC; freeze is a value copy
		}
		return in.IsPure()
	}

	changed := false
	// Worklist to cascade: removing an instruction may zero its operands'
	// use counts.
	work := sc.dce.work[:0]
	defer func() { sc.dce.work = work[:0] }()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if uses[in.ID] == 0 && in.Typ != nil && deletable(in) {
				work = append(work, in)
			}
		}
	}
	if len(work) == 0 {
		return false
	}
	dead := zeroed(sc, &sc.dce.dead, n)
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		if dead[in.ID] {
			continue
		}
		dead[in.ID] = true
		changed = true
		for _, a := range in.Args {
			uses[a.ID]--
			if uses[a.ID] == 0 && a.Typ != nil && deletable(a) {
				work = append(work, a)
			}
		}
	}
	if !changed {
		return false
	}
	removed := 0
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !dead[in.ID] {
				keep = append(keep, in)
			} else {
				removed++
			}
		}
		b.Instrs = keep
	}
	if o.RemarksOn() {
		o.applied(f, fmt.Sprintf("removed %d dead values", removed), "")
	}
	return true
}

package opt

import (
	"dcelens/internal/ir"
)

// Escape is the interprocedural escape/exposure analysis. It computes, for
// every global, whether external code can observe or modify it (Escapes)
// and whether its address flows anywhere beyond direct loads/stores
// (AddrExposed). It is the analysis that justifies the paper's central
// setup: calls to bodyless marker functions cannot clobber a static global
// whose address never escapes, so constant propagation may look straight
// through them.
var Escape = Pass{Name: "escape", Run: func(m *ir.Module, o Options) bool {
	ComputeEscapesOpt(m, o)
	if o.RemarksOn() {
		// Record the analysis verdicts the transforming passes act on: an
		// escaping global is the single most common root cause of a
		// conservative decision downstream.
		for _, g := range m.Globals {
			switch {
			case g.Escapes:
				o.analysisModule("global "+g.Name, "escapes: external code may read or write it")
			case g.AddrExposed:
				o.analysisModule("global "+g.Name, "address-exposed: pointers of unknown provenance may reach it")
			}
		}
	}
	return false // analysis only
}}

// ComputeEscapesOpt is ComputeEscapes honouring the PessimisticEscape
// ablation knob.
func ComputeEscapesOpt(m *ir.Module, o Options) {
	if o.PessimisticEscape {
		for _, g := range m.Globals {
			g.Escapes = true
			g.AddrExposed = true
		}
		return
	}
	computeEscapes(m, o.scratchOrFresh())
}

// ComputeEscapes (re)computes Global.Escapes and Global.AddrExposed from
// scratch: every flag is reset first, so the result is a function of the
// module alone.
func ComputeEscapes(m *ir.Module) { computeEscapes(m, &scratch{}) }

// computeEscapes is ComputeEscapes with its per-function tables taken from
// sc.
func computeEscapes(m *ir.Module, sc *scratch) {
	// Step 1: per-function parameter escape summaries, to a fixpoint: does
	// the value passed for parameter i escape to external code (stored to
	// memory, passed to an external call, returned, or passed to an
	// internal parameter that itself escapes)?
	summaries := map[*ir.Func][]bool{}
	for _, f := range m.Funcs {
		if !f.External {
			summaries[f] = make([]bool, len(f.ParamTys))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			esc := escapingValues(f, summaries, zeroed(sc, &sc.escaping, f.NumValues()))
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpParam && esc[in.ID] && !summaries[f][in.ParamIdx] {
						summaries[f][in.ParamIdx] = true
						changed = true
					}
				}
			}
		}
	}

	// Step 2: classify each global's address uses.
	for _, g := range m.Globals {
		g.Escapes = !g.Internal
		g.AddrExposed = false
	}
	// Addresses appearing in other globals' initializers are exposed (and
	// escape if the holder escapes — conservatively: exposed implies the
	// pointer can be loaded by anyone who can read the holder; treat as
	// exposed only, escape decided by the loads' provenance — we stay
	// conservative and mark escape when the holding global escapes).
	for _, holder := range m.Globals {
		for _, c := range holder.Init {
			if c.IsAddr && c.Global != nil {
				c.Global.AddrExposed = true
				if !holder.Internal {
					c.Global.Escapes = true
				}
			}
		}
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		esc := escapingValues(f, summaries, zeroed(sc, &sc.escaping, f.NumValues()))
		exposed := exposedValues(f, zeroed(sc, &sc.exposed, f.NumValues()))
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpGlobalAddr {
					continue
				}
				if esc[in.ID] {
					in.Global.Escapes = true
				}
				if exposed[in.ID] {
					in.Global.AddrExposed = true
				}
			}
		}
	}
	// Escaping implies exposed.
	for _, g := range m.Globals {
		if g.Escapes {
			g.AddrExposed = true
		}
	}
}

// escapingValues computes the set of SSA values in f whose pointee may be
// accessed by external code into esc, dense by instruction ID and all false
// on entry, and returns it.
func escapingValues(f *ir.Func, summaries map[*ir.Func][]bool, esc []bool) []bool {
	var mark func(v *ir.Instr)
	mark = func(v *ir.Instr) {
		if esc[v.ID] {
			return
		}
		esc[v.ID] = true
		// Derived pointers escape with their source: if v escapes and v is
		// a GEP/cast/phi/select, its inputs escape too.
		switch v.Op {
		case ir.OpGEP:
			mark(v.Args[0])
		case ir.OpPhi, ir.OpSelect:
			for _, a := range v.Args {
				if a.Typ != nil && a.Typ.IsPointer() {
					mark(a)
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				// Storing a pointer publishes it.
				if in.Args[1].Typ != nil && in.Args[1].Typ.IsPointer() {
					mark(in.Args[1])
				}
			case ir.OpCall:
				for i, a := range in.Args {
					if a.Typ == nil || !a.Typ.IsPointer() {
						continue
					}
					if in.Callee.External {
						mark(a)
					} else if s := summaries[in.Callee]; s != nil && i < len(s) && s[i] {
						mark(a)
					}
				}
			case ir.OpRet:
				if len(in.Args) > 0 && in.Args[0].Typ != nil && in.Args[0].Typ.IsPointer() {
					mark(in.Args[0])
				}
			}
		}
	}
	return esc
}

// exposedValues computes values whose address identity leaks beyond direct
// memory accesses and comparisons, dense by instruction ID: such objects can
// be pointed at by pointers of unknown provenance. exp must be all false
// and f.NumValues() long; it is filled and returned.
func exposedValues(f *ir.Func, exp []bool) []bool {
	var mark func(v *ir.Instr)
	mark = func(v *ir.Instr) {
		if exp[v.ID] {
			return
		}
		exp[v.ID] = true
		switch v.Op {
		case ir.OpGEP:
			mark(v.Args[0])
		case ir.OpPhi, ir.OpSelect:
			for _, a := range v.Args {
				if a.Typ != nil && a.Typ.IsPointer() {
					mark(a)
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a.Typ == nil || !a.Typ.IsPointer() {
					continue
				}
				switch in.Op {
				case ir.OpLoad:
					// direct load address: not exposing
				case ir.OpStore:
					if i == 1 {
						mark(a) // stored pointer value: exposed
					}
				case ir.OpBin:
					// comparisons don't expose
				case ir.OpGEP:
					// exposure decided by the GEP's own uses
				default:
					// calls, rets, phis, selects expose the pointer
					mark(a)
				}
			}
		}
	}
	// Phis/selects that are themselves exposed have marked their inputs.
	return exp
}

package opt

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/token"
	"dcelens/internal/types"
)

// GVN is dominator-scoped global value numbering plus block-local
// store-to-load forwarding and load CSE.
//
// Forwarding consults the alias analysis and the escape analysis: a call to
// an external (marker) function only clobbers escaping globals, so values
// of static, non-escaping globals forward straight across marker calls —
// the enabling property of the paper's instrumentation. Stores marked
// Widened by the store-widening pass never forward, reproducing the
// type-mismatch blockage of paper Listing 9e.
var GVN = Pass{Name: "gvn", Pre: ComputeEscapesOpt, Fn: gvnFunc, Post: gvnForward}

// gvnForward is GVN's module-scoped epilogue: cross-function single-store
// forwarding after the per-function sweep.
func gvnForward(m *ir.Module, o Options) bool {
	if !o.LoadForwarding {
		return false
	}
	return singleStoreForward(m, o)
}

// singleStoreForward is the cross-block forwarding rule: for a non-exposed
// internal scalar global with exactly one store in the whole module,
// nothing else can ever write it (no pointer to it exists and no other
// store does), so any load dominated by the store reads the stored value —
// regardless of loops or intervening calls. This models the part of
// GVN/FRE both real compilers get right that the block-local pass above
// would miss.
func singleStoreForward(m *ir.Module, o Options) bool {
	changed := false
	ai := buildAccessIndex(m, o.scratchOrFresh())
	// Deleting loads leaves the CFG alone, so each function's dominator
	// tree is computed once per call, by the first global that needs it.
	doms := map[*ir.Func]*ir.DomTree{}
	for _, g := range m.Globals {
		if g.Escapes || g.AddrExposed || g.Len != 1 {
			continue
		}
		loads, stores, ok := ai.accesses(g, false)
		if !ok || len(stores) != 1 || len(loads) == 0 {
			continue
		}
		s := stores[0]
		if s.Widened {
			if o.RemarksOn() {
				o.missed(s.Block.Func, "store "+g.Name, ReasonWidenedStore,
					"the type-erased widened store never forwards")
			}
			continue // the "vectorized" type-erased store never forwards
		}
		v := s.Args[1]
		f := s.Block.Func
		// Loop hazard: if the store sits in a cycle, a partial iteration
		// could recompute v without re-running the store, making the SSA
		// value at a later load newer than memory. Safe cases: v is an
		// execution-invariant producer, v is computed in the store's own
		// block (a basic block runs atomically, so recomputing v implies
		// re-storing), or the store is not in any cycle.
		valueStable := v.Op == ir.OpConst || v.Op == ir.OpNull || v.Op == ir.OpGlobalAddr ||
			v.Block == s.Block || !blockInCycle(f, s.Block)
		if !valueStable {
			if o.RemarksOn() {
				o.missed(f, "store "+g.Name, ReasonLoopCarried,
					"the store sits in a cycle and the stored value may be recomputed without re-storing")
			}
			continue
		}
		dt := doms[f]
		if dt == nil {
			dt = ir.Dominators(f)
			doms[f] = dt
		}
		forwarded := false
		for _, l := range loads {
			if l.Block.Func != f {
				continue
			}
			if l.Block == s.Block {
				if precedes(s.Block, l, s) {
					continue // load precedes the store in its own block
				}
			} else if !dt.Dominates(s.Block, l.Block) {
				if o.RemarksOn() {
					o.missed(l.Block.Func, "load "+g.Name, ReasonNotDominated,
						"the single store does not dominate this load")
				}
				continue
			}
			if !types.Identical(l.Typ, v.Typ) {
				if o.RemarksOn() {
					o.missed(l.Block.Func, "load "+g.Name, ReasonTypeMismatch,
						"loaded and stored types differ")
				}
				continue
			}
			ir.ReplaceAllUses(l, v)
			l.Remove()
			changed = true
			forwarded = true
			if o.RemarksOn() {
				o.applied(l.Block.Func, "load "+g.Name, "forwarded the module's single store across blocks")
			}
		}
		if forwarded && (v.Op == ir.OpGlobalAddr || v.Op == ir.OpGEP) {
			// Uses of the deleted loads now reference an address value
			// directly — new accesses of that address's global. Reindex so
			// later globals see them.
			ai.rebuild(m)
		}
	}
	return changed
}

// precedes reports whether x comes before y in b (both are in b).
func precedes(b *ir.Block, x, y *ir.Instr) bool {
	for _, in := range b.Instrs {
		switch in {
		case x:
			return true
		case y:
			return false
		}
	}
	return false
}

func gvnFunc(f *ir.Func, o Options) bool {
	sc := o.scratchOrFresh()
	gs := &sc.gvn
	if gs.table == nil {
		gs.table = map[gvnKey]*ir.Instr{}
		gs.typeIDs = map[*types.Type]int{}
		gs.typeStr = map[string]int{}
	}
	clear(gs.table)
	gs.added, gs.avail = gs.added[:0], gs.avail[:0]
	g := &gvnState{o: o, ac: newAliasCtx(sc, f, o.Alias), gvnScratch: gs}
	changed := g.walk(f.Entry(), sc.domTree(f))
	// One sweep repairs every remaining stale operand (phis visited before
	// the value they reference was replaced).
	g.reloc.Apply(f)
	return changed
}

type gvnState struct {
	o     Options
	ac    *AliasCtx
	reloc ir.Relocator
	*gvnScratch
}

// gvnScratch is GVN's slot of the pipeline scratch.
type gvnScratch struct {
	// table maps the key of every pure value in scope (defined in a block
	// dominating the current one) to its representative.
	table map[gvnKey]*ir.Instr
	// added stacks the keys the blocks on the walk's current path entered
	// into table; a block pops its own when the walk leaves it.
	added []gvnKey
	// avail is the current block's store-to-load forwarding state.
	avail []memEntry
	// Type interning: structurally identical types can be distinct
	// pointers, so key equality goes through a string-deduplicated id —
	// computed once per distinct pointer, not once per instruction. The
	// ids are a pure function of the types, so unlike the tables above
	// the interning is kept from function to function.
	typeIDs map[*types.Type]int
	typeStr map[string]int
}

// memEntry is one forwarding candidate: loc currently holds val.
type memEntry struct {
	loc Loc
	val *ir.Instr
}

// invalidate drops the forwarding candidates whose location pred selects
// and reports how many it killed, so the call-clobber remark can say what
// was lost.
func (g *gvnState) invalidate(pred func(Loc) bool) int {
	kept := g.avail[:0]
	for _, e := range g.avail {
		if !pred(e.loc) {
			kept = append(kept, e)
		}
	}
	n := len(g.avail) - len(kept)
	g.avail = kept
	return n
}

// gvnKey is the structural identity of a pure instruction — a comparable
// struct, so table lookups cost a hash of a few words instead of the
// fmt-formatted string key this pass started with (which was ~4% of total
// campaign CPU). n disambiguates arity within the fixed arg array.
type gvnKey struct {
	op         ir.Op
	typ        int
	bin        token.Kind
	aux        int64
	g          *ir.Global
	a0, a1, a2 int
	n          int8
}

func (g *gvnState) typeID(t *types.Type) int {
	if id, ok := g.typeIDs[t]; ok {
		return id
	}
	s := t.String()
	id, ok := g.typeStr[s]
	if !ok {
		id = len(g.typeStr) + 1
		g.typeStr[s] = id
	}
	g.typeIDs[t] = id
	return id
}

// walk performs a preorder dominator-tree traversal with a scoped table.
func (g *gvnState) walk(b *ir.Block, dt *ir.DomTree) bool {
	changed := false
	mark := len(g.added)
	g.avail = g.avail[:0] // forwarding is block-local

	// The survivors go to a fresh slice rather than being compacted in
	// place: instcombine ranges over b.Instrs while InsertBefore grows it,
	// so the spare capacity an in-place compaction leaves behind would
	// change which instructions a later sweep revisits.
	var keep []*ir.Instr
	for _, in := range b.Instrs {
		// Canonicalize operands through pending replacements first: value
		// numbering and location resolution must see the representative,
		// exactly as an eager rewriter would.
		if !g.reloc.Empty() {
			for i, a := range in.Args {
				if n := g.reloc.Resolve(a); n != a {
					in.Args[i] = n
				}
			}
		}
		switch in.Op {
		case ir.OpLoad:
			loc := ResolveLoc(in.Args[0])
			forwarded := false
			for _, e := range g.avail {
				if MustAlias(e.loc, loc) && e.val.Typ != nil && types.Identical(e.val.Typ, in.Typ) {
					g.reloc.Add(in, e.val)
					forwarded = true
					changed = true
					break
				}
			}
			if forwarded {
				if g.o.RemarksOn() {
					g.o.applied(b.Func, loadSubject(in), "forwarded from an available store or load")
				}
				continue // drop the load
			}
			g.avail = append(g.avail, memEntry{loc, in})

		case ir.OpStore:
			loc := ResolveLoc(in.Args[0])
			g.invalidate(func(l Loc) bool { return g.ac.MayAlias(l, loc) })
			if !in.Widened && g.o.LoadForwarding {
				g.avail = append(g.avail, memEntry{loc, in.Args[1]})
			}

		case ir.OpCall:
			if in.Callee != nil && in.Callee.External {
				// Opaque externals can only touch escaping/exposed storage.
				killed := g.invalidate(func(l Loc) bool {
					switch {
					case l.G != nil:
						return l.G.Escapes
					case l.A != nil:
						return g.ac.isExposed(l.A)
					default:
						return true
					}
				})
				if killed > 0 && g.o.RemarksOn() {
					g.o.missed(b.Func, "call "+in.Callee.Name, ReasonCallClobber,
						fmt.Sprintf("external call may write escaping storage: %d forwarding candidates dropped", killed))
				}
			} else {
				killed := len(g.avail)
				g.avail = g.avail[:0] // internal call: no mod/ref summary
				if killed > 0 && g.o.RemarksOn() {
					subject := "call"
					if in.Callee != nil {
						subject = "call " + in.Callee.Name
					}
					g.o.missed(b.Func, subject, ReasonCallClobber,
						fmt.Sprintf("internal call has no mod/ref summary: %d forwarding candidates dropped", killed))
				}
			}

		default:
			if in.Typ != nil && in.IsPure() && in.Op != ir.OpPhi && in.Op != ir.OpAlloca && in.Op != ir.OpParam {
				key, exact := g.key(in)
				if !exact {
					break
				}
				if rep, ok := g.table[key]; ok {
					g.reloc.Add(in, rep)
					changed = true
					if g.o.RemarksOn() {
						g.o.applied(b.Func, fmt.Sprintf("cse v%d (%s)", in.ID, in.Op),
							"replaced by a dominating equivalent value")
					}
					continue // drop the duplicate
				}
				g.table[key] = in
				g.added = append(g.added, key)
			}
		}
		keep = append(keep, in)
	}
	b.Instrs = keep

	for _, kid := range dt.Children(b) {
		if g.walk(kid, dt) {
			changed = true
		}
	}
	for _, k := range g.added[mark:] {
		delete(g.table, k)
	}
	g.added = g.added[:mark]
	return changed
}

// key builds the structural identity of a pure instruction; ok is false for
// shapes the fixed-arity key cannot represent exactly (which simply opt out
// of CSE — never a wrong merge).
func (g *gvnState) key(in *ir.Instr) (gvnKey, bool) {
	k := gvnKey{op: in.Op, typ: g.typeID(in.Typ)}
	switch in.Op {
	case ir.OpConst:
		k.aux = in.IntVal
		return k, true
	case ir.OpNull:
		return k, true
	case ir.OpGlobalAddr:
		// Globals are unique per name, so pointer identity is name identity.
		k.g = in.Global
		return k, true
	case ir.OpBin:
		k.bin = in.BinOp
		a, b := in.Args[0].ID, in.Args[1].ID
		if isCommutative(in.BinOp) && b < a {
			a, b = b, a
		}
		k.a0, k.a1, k.n = a, b, 2
		return k, true
	default:
		if len(in.Args) > 3 {
			return k, false
		}
		k.n = int8(len(in.Args))
		if k.n > 0 {
			k.a0 = in.Args[0].ID
		}
		if k.n > 1 {
			k.a1 = in.Args[1].ID
		}
		if k.n > 2 {
			k.a2 = in.Args[2].ID
		}
		return k, true
	}
}

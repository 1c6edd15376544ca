package ir

import (
	"errors"
	"fmt"
	"slices"
)

// Verify checks structural SSA invariants of every function in the module:
// blocks end in exactly one terminator, edges and Preds agree, phi inputs
// match predecessor sets, definitions dominate uses, and operand/owner
// bookkeeping is intact. Passes run the verifier after themselves in tests;
// the pipeline can run it after every pass in a debug mode.
func Verify(m *Module) error {
	var errs []error
	var v verifier
	for _, f := range m.Funcs {
		if f.External {
			if len(f.Blocks) != 0 {
				errs = append(errs, fmt.Errorf("%s: external function has blocks", f.Name))
			}
			continue
		}
		if err := v.function(f); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f.Name, err))
		}
	}
	return errors.Join(errs...)
}

// VerifyFunc checks one function.
func VerifyFunc(f *Func) error {
	var v verifier
	return v.function(f)
}

// verifier holds the dense tables of one Verify call, reused from function
// to function. blockAt and defAt map an ID back to the block or
// instruction the function body holds under it, so membership is one
// comparison: a foreign block or value with a colliding ID fails it.
type verifier struct {
	dt      DomTree
	blockAt []*Block
	defAt   []*Instr
	pos     []int32 // an instruction's index within its block
}

func (v *verifier) function(f *Func) error {
	var errs []error
	bail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}

	v.blockAt = resize(v.blockAt, f.NumBlocks())
	clear(v.blockAt)
	v.defAt = resize(v.defAt, f.NumValues())
	clear(v.defAt)
	v.pos = resize(v.pos, f.NumValues())
	for _, b := range f.Blocks {
		if b.ID < len(v.blockAt) {
			v.blockAt[b.ID] = b
		}
	}
	inFunc := func(b *Block) bool { return b.ID >= 0 && b.ID < len(v.blockAt) && v.blockAt[b.ID] == b }

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			bail("b%d: empty block", b.ID)
			continue
		}
		for i, in := range b.Instrs {
			if in.Block != b {
				bail("b%d: instruction v%d has wrong owner", b.ID, in.ID)
			}
			if in.ID >= 0 && in.ID < len(v.defAt) {
				v.defAt[in.ID] = in
				v.pos[in.ID] = int32(i)
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				bail("b%d: terminator placement wrong at v%d (%v)", b.ID, in.ID, in.Op)
			}
			if in.Op == OpPhi {
				if len(in.Args) != len(in.PhiPreds) {
					bail("b%d: phi v%d has %d args, %d preds", b.ID, in.ID, len(in.Args), len(in.PhiPreds))
					continue
				}
				// Phis must be grouped at the top of the block.
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					bail("b%d: phi v%d not at block head", b.ID, in.ID)
				}
				if len(in.Args) != len(b.Preds) {
					bail("b%d: phi v%d has %d entries for %d preds", b.ID, in.ID, len(in.Args), len(b.Preds))
				}
				for _, pb := range in.PhiPreds {
					if !slices.Contains(b.Preds, pb) {
						bail("b%d: phi v%d references non-pred b%d", b.ID, in.ID, pb.ID)
					}
				}
			}
			for _, t := range in.Targets {
				if !inFunc(t) {
					bail("b%d: v%d targets foreign block", b.ID, in.ID)
				}
			}
			for _, a := range in.Args {
				if a == nil {
					bail("b%d: v%d has nil operand", b.ID, in.ID)
					continue
				}
				if a.Block == nil || a.Block.Func != f {
					bail("b%d: v%d uses value from another function", b.ID, in.ID)
				}
				if a.Typ == nil && a.Op != OpCall {
					bail("b%d: v%d uses void value v%d (%v)", b.ID, in.ID, a.ID, a.Op)
				}
			}
		}
	}

	// Edge consistency: preds must mirror successor edges exactly (as
	// multisets). Each distinct edge is counted once from its source's
	// terminator; pred entries from outside the body have no terminator
	// edge to match.
	for _, b := range f.Blocks {
		succs := b.Succs()
		for i, s := range succs {
			if slices.Index(succs, s) != i {
				continue // counted at its first occurrence
			}
			if n, p := count(succs, s), count(s.Preds, b); n != p {
				bail("edge b%d->b%d: %d terminator edges, %d pred entries", b.ID, s.ID, n, p)
			}
		}
		for i, p := range b.Preds {
			if slices.Index(b.Preds, p) != i {
				continue
			}
			if !inFunc(p) || count(p.Succs(), b) == 0 {
				bail("edge b%d->b%d: %d pred entries, 0 terminator edges", p.ID, b.ID, count(b.Preds, p))
			}
		}
	}

	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	// Defs dominate uses (reachable blocks only). Every instruction's
	// owner is now its containing block, so a body-held operand's
	// definition block is its Block.
	v.dt.Rebuild(f)
	dt := &v.dt
	defBlock := func(a *Instr) *Block {
		if a.ID >= 0 && a.ID < len(v.defAt) && v.defAt[a.ID] == a {
			return a.Block
		}
		return nil
	}
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == OpPhi {
				for i, a := range in.Args {
					pb := in.PhiPreds[i]
					if !dt.Reachable(pb) {
						continue
					}
					db := defBlock(a)
					if db == nil {
						bail("phi v%d arg not in function", in.ID)
						continue
					}
					if !dt.Dominates(db, pb) {
						bail("phi v%d: def b%d does not dominate incoming edge from b%d", in.ID, db.ID, pb.ID)
					}
				}
				continue
			}
			for _, a := range in.Args {
				db := defBlock(a)
				if db == nil {
					bail("v%d: operand v%d not in function body", in.ID, a.ID)
					continue
				}
				if db == b {
					if v.pos[a.ID] >= v.pos[in.ID] {
						bail("b%d: v%d used before defined (v%d)", b.ID, a.ID, in.ID)
					}
				} else if !dt.Dominates(db, b) {
					bail("v%d: def in b%d does not dominate use in b%d", a.ID, db.ID, b.ID)
				}
			}
		}
	}

	return errors.Join(errs...)
}

// count reports how many times b occurs in bs.
func count(bs []*Block, b *Block) int {
	n := 0
	for _, x := range bs {
		if x == b {
			n++
		}
	}
	return n
}

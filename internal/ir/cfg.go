package ir

import "slices"

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first search.
func (f *Func) ReversePostorder() []*Block {
	post, _ := f.postorder(nil, make([]bool, f.nextBlockID), nil)
	slices.Reverse(post)
	return post
}

// dfsFrame is one block on the explicit depth-first search stack.
type dfsFrame struct {
	b    *Block
	next int // index of the next successor to visit
}

// postorder appends the blocks reachable from entry to post in depth-first
// postorder, visiting successors in terminator order. seen must be all
// false and dense by Block.ID; stack is working storage. The grown post and
// stack are returned for reuse.
func (f *Func) postorder(post []*Block, seen []bool, stack []dfsFrame) ([]*Block, []dfsFrame) {
	entry := f.Entry()
	seen[entry.ID] = true
	stack = append(stack[:0], dfsFrame{b: entry})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := top.b.Succs(); top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	return post, stack
}

// Reachable returns the set of blocks reachable from entry, dense by
// Block.ID.
func (f *Func) Reachable() []bool {
	r := make([]bool, f.nextBlockID)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if r[b.ID] {
			return
		}
		r[b.ID] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
	}
	dfs(f.Entry())
	return r
}

// DomTree is the dominator tree of a function. All internal tables are
// dense by Block.ID — the tree is rebuilt by every dominance-consuming pass
// instance, so its construction cost (formerly dominated by map churn) is
// squarely on the campaign hot path. Rebuild recomputes a tree in place,
// so a pass that needs one per function keeps a single DomTree.
type DomTree struct {
	fn    *Func
	idom  []*Block   // immediate dominator; entry and unreachable → nil
	kids  [][]*Block // dominator-tree children, in RPO
	order []int32    // reverse postorder index; -1 = unreachable
	rpo   []*Block

	// Working storage of the depth-first search, kept for Rebuild.
	seen  []bool
	stack []dfsFrame
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func Dominators(f *Func) *DomTree {
	t := &DomTree{}
	t.Rebuild(f)
	return t
}

// Rebuild recomputes t as the dominator tree of f, reusing t's tables
// (and each block's children list) where they are large enough. Slices t
// returned earlier (RPO, Children) are overwritten.
func (t *DomTree) Rebuild(f *Func) {
	n := f.nextBlockID
	t.fn = f
	t.idom = resize(t.idom, n)
	clear(t.idom)
	t.order = resize(t.order, n)
	for i := range t.order {
		t.order[i] = -1
	}
	t.kids = resize(t.kids, n)
	for i := range t.kids {
		t.kids[i] = t.kids[i][:0]
	}
	t.seen = resize(t.seen, n)
	clear(t.seen)
	t.rpo, t.stack = f.postorder(t.rpo[:0], t.seen, t.stack)
	slices.Reverse(t.rpo)
	for i, b := range t.rpo {
		t.order[b.ID] = int32(i)
	}
	entry := f.Entry()
	t.idom[entry.ID] = entry // sentinel during iteration
	changed := true
	for changed {
		changed = false
		for _, b := range t.rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if t.idom[p.ID] == nil {
					continue // not processed yet
				}
				if t.order[p.ID] < 0 {
					continue // unreachable predecessor
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom == nil {
				continue
			}
			if t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry.ID] = nil
	// Children in RPO: deterministic regardless of map iteration order.
	for _, b := range t.rpo {
		if d := t.idom[b.ID]; d != nil {
			t.kids[d.ID] = append(t.kids[d.ID], b)
		}
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (t *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for t.order[a.ID] > t.order[b.ID] {
			a = t.idom[a.ID]
			if a == nil {
				return b
			}
		}
		for t.order[b.ID] > t.order[a.ID] {
			b = t.idom[b.ID]
			if b == nil {
				return a
			}
		}
	}
	return a
}

// Idom returns b's immediate dominator (nil for the entry block and
// unreachable blocks).
func (t *DomTree) Idom(b *Block) *Block { return t.idom[b.ID] }

// Children returns the dominator-tree children of b, in reverse postorder.
func (t *DomTree) Children(b *Block) []*Block { return t.kids[b.ID] }

// RPO returns the reachable blocks in reverse postorder.
func (t *DomTree) RPO() []*Block { return t.rpo }

// Reachable reports whether b is reachable from the entry block.
func (t *DomTree) Reachable(b *Block) bool { return t.order[b.ID] >= 0 }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = t.idom[b.ID]
	}
	return false
}

// Frontiers computes the dominance frontier of every reachable block
// (Cytron et al.), dense by Block.ID; used by mem2reg's phi placement.
func (t *DomTree) Frontiers() [][]*Block {
	df := make([][]*Block, len(t.idom))
	for _, b := range t.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if t.order[p.ID] < 0 {
				continue
			}
			runner := p
			for runner != nil && runner != t.idom[b.ID] {
				if !contains(df[runner.ID], b) {
					df[runner.ID] = append(df[runner.ID], b)
				}
				runner = t.idom[runner.ID]
			}
		}
	}
	return df
}

func contains(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// Loop describes one natural loop.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Latches are the in-loop predecessors of the header.
	Latches []*Block
}

// Exits returns the out-of-loop successor edges as (from, to) pairs.
func (l *Loop) Exits() [][2]*Block {
	var out [][2]*Block
	for b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] {
				out = append(out, [2]*Block{b, s})
			}
		}
	}
	return out
}

// NaturalLoops finds all natural loops via back edges (an edge u->h where h
// dominates u). Loops sharing a header are merged, as is conventional.
func NaturalLoops(f *Func, t *DomTree) []*Loop {
	byHeader := map[*Block]*Loop{}
	for _, b := range t.rpo {
		for _, s := range b.Succs() {
			if t.Dominates(s, b) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
				}
				l.Latches = append(l.Latches, b)
				// Collect the loop body: blocks that reach the latch
				// without passing through the header.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range x.Preds {
						if t.order[p.ID] < 0 {
							continue
						}
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, b := range t.rpo { // deterministic order
		if l, ok := byHeader[b]; ok {
			loops = append(loops, l)
		}
	}
	return loops
}

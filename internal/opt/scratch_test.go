package opt

import (
	"testing"

	"dcelens/internal/ir"
)

// TestScratchHandOut pins the hand-out contract: tables come back sized to
// the request, zeroed ones all zero even over poisoned or stale memory,
// dirty ones junk when poisoning, and a large enough backing array is
// reused rather than reallocated.
func TestScratchHandOut(t *testing.T) {
	for _, poison := range []bool{false, true} {
		sc := &scratch{poison: poison}
		var slot []int32
		a := zeroed(sc, &slot, 8)
		for i := range a {
			a[i] = int32(i + 1)
		}
		b := zeroed(sc, &slot, 6)
		if len(b) != 6 || &b[0] != &a[0] {
			t.Fatalf("poison=%v: want the 6-entry table on the first one's backing array", poison)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("poison=%v: zeroed table has %d at %d", poison, v, i)
			}
		}
		if poison && a[7] != junk[int32]() {
			t.Fatalf("poisoned hand-out left %d past the handed-out part", a[7])
		}
		d := dirty(sc, &slot, 4)
		if poison {
			for i, v := range d {
				if v != junk[int32]() {
					t.Fatalf("poisoned dirty table has %d at %d, want junk", v, i)
				}
			}
		}
	}
}

// TestScratchJunkPointers checks that poisoned pointer slots point at
// objects whose negative IDs make any dense-table lookup through them
// fail loudly.
func TestScratchJunkPointers(t *testing.T) {
	sc := &scratch{poison: true}
	var instrs []*ir.Instr
	in := dirty(sc, &instrs, 1)[0]
	if in == nil || in.ID >= 0 || in.Block == nil || in.Block.ID >= 0 {
		t.Fatalf("junk instruction %+v: want a non-nil value with negative IDs", in)
	}
}

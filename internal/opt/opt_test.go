package opt

import (
	"strings"
	"testing"
	"testing/quick"

	"dcelens/internal/ast"
	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/parser"
	"dcelens/internal/sema"
)

// buildIR parses, checks, and lowers a source fragment.
func buildIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(prog); err != nil {
		t.Fatal(err)
	}
	m, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runPasses applies the passes and verifies after each.
func runPasses(t *testing.T, m *ir.Module, o Options, passes ...Pass) {
	t.Helper()
	o.VerifyEachPass = true
	if err := ObservedPipeline(m, o, passes, 3, nil); err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
}

// exec runs the module.
func exec(t *testing.T, m *ir.Module) *ir.ExecResult {
	t.Helper()
	res, err := ir.Execute(m, ir.ExecOptions{})
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, m)
	}
	return res
}

// markerSurvives reports whether a call to name is still present in the IR.
func markerSurvives(m *ir.Module, name string) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && in.Callee.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// corePasses is the minimal useful schedule used by many tests.
func corePasses() []Pass {
	return []Pass{Mem2Reg, SCCP, InstCombine, SimplifyCFG, DCE}
}

func TestMem2RegPromotesScalars(t *testing.T) {
	m := buildIR(t, `
int main(void) {
  int x = 3;
  int y = x + 4;
  return y;
}`)
	runPasses(t, m, Options{}, Mem2Reg)
	f := m.LookupFunc("main")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				t.Fatalf("alloca survived promotion:\n%s", f)
			}
		}
	}
	if got := exec(t, m); got.ExitCode != 7 {
		t.Fatalf("exit %d, want 7", got.ExitCode)
	}
}

func TestMem2RegKeepsArrays(t *testing.T) {
	m := buildIR(t, `
int main(void) {
  int a[4] = {1, 2, 3, 4};
  return a[2];
}`)
	runPasses(t, m, Options{}, Mem2Reg)
	f := m.LookupFunc("main")
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("array alloca should not be promoted")
	}
	if got := exec(t, m); got.ExitCode != 3 {
		t.Fatalf("exit %d, want 3", got.ExitCode)
	}
}

func TestMem2RegLoopPhi(t *testing.T) {
	m := buildIR(t, `
int main(void) {
  int s = 0;
  for (int i = 0; i < 5; i++) s += i;
  return s;
}`)
	runPasses(t, m, Options{}, Mem2Reg)
	if got := exec(t, m); got.ExitCode != 10 {
		t.Fatalf("exit %d, want 10", got.ExitCode)
	}
	// There must be loop phis now.
	phis := 0
	for _, b := range m.LookupFunc("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				phis++
			}
		}
	}
	if phis == 0 {
		t.Fatal("expected phis after promotion of loop variables")
	}
}

func TestSCCPFoldsConstantBranch(t *testing.T) {
	m := buildIR(t, `
void DCEMarker0(void);
int main(void) {
  int c = 0;
  int d = c * 10;
  if (d) {
    DCEMarker0();
  }
  return d;
}`)
	runPasses(t, m, Options{}, corePasses()...)
	if markerSurvives(m, "DCEMarker0") {
		t.Fatalf("SCCP+simplifycfg failed to remove dead marker:\n%s", m)
	}
	if got := exec(t, m); got.ExitCode != 0 {
		t.Fatalf("exit %d, want 0", got.ExitCode)
	}
}

func TestSCCPPointerComparison(t *testing.T) {
	src := `
void DCEMarker0(void);
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[1];
  if (c == d) {
    DCEMarker0();
  }
  return 0;
}`
	// With the nonzero-offset folding knob (GCC-like): eliminated.
	m := buildIR(t, src)
	runPasses(t, m, Options{FoldPtrCmpNonzeroOffset: true}, corePasses()...)
	if markerSurvives(m, "DCEMarker0") {
		t.Fatalf("pointer comparison not folded with knob on:\n%s", m)
	}
	// Without it (LLVM EarlyCSE limitation, paper Listing 3): missed.
	m2 := buildIR(t, src)
	runPasses(t, m2, Options{FoldPtrCmpNonzeroOffset: false}, corePasses()...)
	if !markerSurvives(m2, "DCEMarker0") {
		t.Fatalf("pointer comparison folded despite knob off (should reproduce the LLVM miss)")
	}
	// Zero offsets fold under either setting.
	src0 := strings.Replace(src, "&b[1]", "&b[0]", 1)
	m3 := buildIR(t, src0)
	runPasses(t, m3, Options{FoldPtrCmpNonzeroOffset: false}, corePasses()...)
	if markerSurvives(m3, "DCEMarker0") {
		t.Fatalf("zero-offset pointer comparison should fold even without the knob")
	}
}

func TestInstCombineIdentities(t *testing.T) {
	m := buildIR(t, `
int main(void) {
  int x = 5;
  int a = x + 0;
  int b = a * 1;
  int c = b - b;
  int d = c | 0;
  int e = d ^ d;
  int f = (x == x);
  return e + f;
}`)
	runPasses(t, m, Options{}, corePasses()...)
	if got := exec(t, m); got.ExitCode != 1 {
		t.Fatalf("exit %d, want 1", got.ExitCode)
	}
	// Everything should fold to a single constant return.
	f := m.LookupFunc("main")
	nonTrivial := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBin {
				nonTrivial++
			}
		}
	}
	if nonTrivial != 0 {
		t.Fatalf("arithmetic not fully folded:\n%s", f)
	}
}

func TestSimplifyCFGMergesBlocks(t *testing.T) {
	m := buildIR(t, `
int main(void) {
  int x = 1;
  if (x) {
    x = 2;
  }
  return x;
}`)
	runPasses(t, m, Options{}, corePasses()...)
	f := m.LookupFunc("main")
	if len(f.Blocks) != 1 {
		t.Fatalf("expected a single block after simplification, got %d:\n%s", len(f.Blocks), f)
	}
	if got := exec(t, m); got.ExitCode != 2 {
		t.Fatalf("exit %d, want 2", got.ExitCode)
	}
}

func TestDCERemovesUnusedChains(t *testing.T) {
	m := buildIR(t, `
static int g = 4;
int main(void) {
  int unused = g * 17 + 3;
  return 0;
}`)
	runPasses(t, m, Options{}, Mem2Reg, DCE)
	f := m.LookupFunc("main")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBin || in.Op == ir.OpLoad {
				t.Fatalf("dead computation survived:\n%s", f)
			}
		}
	}
}

// TestCorePassesPreserveSemantics is the central compiler-correctness
// property: the core pipeline must not change observable behaviour of any
// generated, instrumented program.
func TestCorePassesPreserveSemantics(t *testing.T) {
	checkSemanticsPreserved(t, Options{FoldPtrCmpNonzeroOffset: true}, corePasses(), 30)
}

// checkSemanticsPreserved compiles random instrumented programs with and
// without the given schedule and compares all observables. Shared by the
// per-pass property tests.
func checkSemanticsPreserved(t *testing.T, o Options, passes []Pass, n int) {
	t.Helper()
	o.VerifyEachPass = true
	f := func(seed int64) bool {
		prog := cgen.Generate(cgen.DefaultConfig(seed))
		ins, err := instrument.Instrument(prog, instrument.Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		m0, err := lower.Lower(ins.Prog)
		if err != nil {
			t.Logf("seed %d: lower: %v", seed, err)
			return false
		}
		want, err := ir.Execute(m0, ir.ExecOptions{})
		if err != nil {
			t.Logf("seed %d: exec unopt: %v", seed, err)
			return false
		}
		m1, err := lower.Lower(ins.Prog)
		if err != nil {
			return false
		}
		if err := ObservedPipeline(m1, o, passes, 3, nil); err != nil {
			t.Logf("seed %d: pipeline: %v", seed, err)
			return false
		}
		got, err := ir.Execute(m1, ir.ExecOptions{})
		if err != nil {
			t.Logf("seed %d: exec opt: %v", seed, err)
			return false
		}
		if got.ExitCode != want.ExitCode || got.Checksum != want.Checksum {
			t.Logf("seed %d: semantics changed (exit %d->%d checksum %x->%x)\nprogram:\n%s",
				seed, want.ExitCode, got.ExitCode, want.Checksum, got.Checksum, ast.Print(ins.Prog))
			return false
		}
		// Optimization may only remove extern calls from dead code: every
		// executed call count must be preserved exactly (markers in live
		// code must run the same number of times).
		for name, c := range want.ExternCalls {
			if got.ExternCalls[name] != c {
				t.Logf("seed %d: extern %s count changed %d -> %d", seed, name, c, got.ExternCalls[name])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

package dcelens

import (
	"strings"
	"testing"

	"dcelens/internal/instrument"
)

func TestEndToEndQuickstart(t *testing.T) {
	prog := Generate(2022)
	ins, err := Instrument(prog)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Dead) == 0 || len(truth.Alive) == 0 {
		t.Fatalf("degenerate truth: %d dead, %d alive", len(truth.Dead), len(truth.Alive))
	}
	gcc, err := Compile(ins, GCC(O3), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	llvm, err := Compile(ins, LLVM(O3), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gcc.VerifyAgainstTruth(truth); err != nil {
		t.Fatal(err)
	}
	if err := llvm.VerifyAgainstTruth(truth); err != nil {
		t.Fatal(err)
	}
	graph, err := BuildMarkerCFG(ins)
	if err != nil {
		t.Fatal(err)
	}
	missed := DiffMissed(gcc, llvm, truth)
	_ = graph.Primary(truth, missed)
}

func TestParsePrintRoundTrip(t *testing.T) {
	src := `static int g = 1;
int main(void) {
  g = g + 2;
  return g;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(prog)
	if !strings.Contains(printed, "g = g + 2;") {
		t.Fatalf("print lost content:\n%s", printed)
	}
	if _, err := Parse(printed); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

// adoptMarkers treats explicit DCEMarker declarations as the marker table,
// as the examples and tools do for hand-written listings.
func adoptMarkers(p *Program) *Instrumented {
	ins := &Instrumented{Prog: p}
	for _, f := range p.Funcs() {
		if f.Body == nil && IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, instrument.Marker{ID: len(ins.Markers), Name: f.Name})
		}
	}
	return ins
}

// TestPaperListings asserts the qualitative findings of the paper's
// listings (the runnable walkthrough lives in examples/paperlistings).
func TestPaperListings(t *testing.T) {
	cases := []struct {
		name           string
		src            string
		gccEliminates  bool
		llvmEliminates bool
	}{
		{
			name: "Listing3_PtrCmpNonzeroOffset",
			src: `
void DCEMarker0(void);
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[1];
  if (c == d) { DCEMarker0(); }
  return 0;
}`,
			gccEliminates:  true,
			llvmEliminates: false,
		},
		{
			name: "Listing4a_FlowInsensitiveGlobal",
			src: `
void DCEMarker0(void);
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 0;
  return 0;
}`,
			gccEliminates:  false,
			llvmEliminates: true,
		},
		{
			name: "Listing6a_LLVMRegressionDifferentConst",
			src: `
void DCEMarker0(void);
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 1;
  return 0;
}`,
			gccEliminates:  false,
			llvmEliminates: false,
		},
		{
			name: "Listing9f_ConstArrayLoad",
			src: `
void DCEMarker0(void);
int a;
static int b[2] = {0, 0};
int main(void) {
  if (b[a]) { DCEMarker0(); }
  return 0;
}`,
			gccEliminates:  false,
			llvmEliminates: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ins := adoptMarkers(prog)
			truth, err := GroundTruth(ins)
			if err != nil {
				t.Fatal(err)
			}
			if truth.Alive["DCEMarker0"] {
				t.Fatal("marker unexpectedly alive")
			}
			gcc, err := Compile(ins, GCC(O3), Instr{})
			if err != nil {
				t.Fatal(err)
			}
			llvm, err := Compile(ins, LLVM(O3), Instr{})
			if err != nil {
				t.Fatal(err)
			}
			if got := !gcc.Alive["DCEMarker0"]; got != tc.gccEliminates {
				t.Errorf("gcc-sim eliminates = %v, want %v", got, tc.gccEliminates)
			}
			if got := !llvm.Alive["DCEMarker0"]; got != tc.llvmEliminates {
				t.Errorf("llvm-sim eliminates = %v, want %v", got, tc.llvmEliminates)
			}
		})
	}
}

// TestLLVMRegressionOldVersionEliminates: paper Listing 6a notes that LLVM
// up to 3.7 eliminated the marker. The base version of llvm-sim's history
// has the flow-aware analysis and must eliminate it; the latest must not
// (the regression landed with the GlobalOpt commit).
func TestLLVMRegressionOldVersionEliminates(t *testing.T) {
	prog, err := Parse(`
void DCEMarker0(void);
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 1;
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ins := adoptMarkers(prog)
	old, err := Compile(ins, CompilerAt(PersonalityLLVM, O3, 2), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	if old.Alive["DCEMarker0"] {
		t.Error("llvm-sim base (flow-aware) should eliminate the Listing 6a marker")
	}
	cur, err := Compile(ins, LLVM(O3), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Alive["DCEMarker0"] {
		t.Error("llvm-sim head should miss the Listing 6a marker (regression)")
	}
	// And the bisector pins the GlobalOpt commit.
	out, err := BisectRegression(ins, PersonalityLLVM, O3, "DCEMarker0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Commit.Desc, "GlobalOpt: drop the legacy flow-aware") {
		t.Errorf("bisected to %q", out.Commit.Desc)
	}
}

// TestValueCheckExtension drives the §4.4 future-work instrumentation
// through the compilers: a never-stored global's exit-value check folds
// for both personalities; a check over a computed value separates them
// (gcc-sim's flow-insensitive analysis cannot prove the final value).
func TestValueCheckExtension(t *testing.T) {
	prog, err := Parse(`
static int a = 5;
static int b = 1;
int main(void) {
  b = b + 2;
  b = b * 2; // b ends as 6; enough accesses for llvm-sim's localization
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := InstrumentValueChecks(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Markers) != 2 {
		t.Fatalf("want 2 checks, got %d", len(ins.Markers))
	}
	truth, err := GroundTruth(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Dead) != 2 {
		t.Fatalf("value checks must be dead: %v", truth.Dead)
	}
	aCheck, bCheck := ins.Markers[0].Name, ins.Markers[1].Name

	gcc, err := Compile(ins, GCC(O3), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	llvm, err := Compile(ins, LLVM(O3), Instr{})
	if err != nil {
		t.Fatal(err)
	}
	// a is never stored: both personalities prove a == 5.
	if gcc.Alive[aCheck] || llvm.Alive[aCheck] {
		t.Errorf("never-stored exit-value check should fold everywhere (gcc=%v llvm=%v)",
			gcc.Alive[aCheck], llvm.Alive[aCheck])
	}
	// b is stored: gcc-sim's flow-insensitive analysis gives up, while
	// llvm-sim localizes b to a stack slot, promotes it, and folds the
	// whole chain to 6.
	if !gcc.Alive[bCheck] {
		t.Error("gcc-sim should miss the computed exit-value check")
	}
	if llvm.Alive[bCheck] {
		t.Error("llvm-sim should prove b's final value")
	}
}

// Paper listings: the reduced test cases from the paper's §2 and §4.3,
// ported to MiniC and run through both compiler personalities, reproducing
// each root cause qualitatively.
//
//	go run ./examples/paperlistings
//
// For every listing the program prints which personality eliminates the
// dead marker and which misses it, alongside the paper's finding.
package main

import (
	"fmt"
	"os"

	"dcelens"
)

// A listing is a MiniC program containing explicit DCEMarker calls in its
// dead regions, plus the expectation derived from the paper.
type listing struct {
	name    string
	paper   string // the paper's observation
	source  string
	markers []string // markers of interest (all should be dead)
	// Expected elimination per personality at -O3: true = eliminated.
	gccEliminates  bool
	llvmEliminates bool
	// Optional: compare levels within one personality instead.
	levelRegression *levelCheck
}

type levelCheck struct {
	personality string // "gcc" or "llvm"
	// eliminated at lower level, missed at O3
	lower dcelens.Level
}

var listings = []listing{
	{
		name:  "Listing 3 (LLVM PR49434): &a == &b[1] with nonzero offset",
		paper: "LLVM's EarlyCSE cannot simplify &a == &b[1] to false; GCC can",
		source: `
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
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  true,
		llvmEliminates: false,
	},
	{
		name:  "Listing 3 variant: zero offset folds everywhere",
		paper: "changing b[1] to b[0] lets EarlyCSE simplify and the block dies",
		source: `
void DCEMarker0(void);
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[0];
  if (c == d) {
    DCEMarker0();
  }
  return 0;
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  true,
		llvmEliminates: true,
	},
	{
		name:  "Listing 4a (GCC PR99357): flow-insensitive global analysis",
		paper: "GCC cannot deduce a == 0 at the check because a store exists; LLVM can (store writes the initial value)",
		source: `
void DCEMarker0(void);
static int a = 0;
int main(void) {
  if (a) {
    DCEMarker0();
  }
  a = 0;
  return 0;
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  false,
		llvmEliminates: true,
	},
	{
		name:  "Listing 6a (LLVM regression since 3.8): store of a different constant",
		paper: "with a = 1 after the check, LLVM >= 3.8 also misses (3.7 eliminated); GCC misses as before",
		source: `
void DCEMarker0(void);
static int a = 0;
int main(void) {
  if (a) {
    DCEMarker0();
  }
  a = 1;
  return 0;
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  false,
		llvmEliminates: false,
	},
	{
		name:  "Listing 9f (GCC PR99419, rediscovered bug): constant array load",
		paper: "GCC cannot see that b[a] loads 0 for every index; LLVM folds it",
		source: `
void DCEMarker0(void);
int a;
static int b[2] = {0, 0};
int main(void) {
  if (b[a]) {
    DCEMarker0();
  }
  return 0;
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  false,
		llvmEliminates: true,
	},
	{
		name:  "Listing 9e (GCC PR99776): vectorized pointer stores lose their type",
		paper: "GCC -O3 vectorizes the loop with unsigned long as the pointer data type, blocking constant folding; -O1 eliminated the call",
		source: `
void DCEMarker0(void);
static int a[2];
static int *c[2];
int main(void) {
  for (int i = 0; i < 2; i++) {
    c[i] = &a[1];
  }
  if (!c[0]) {
    DCEMarker0();
  }
  return 0;
}`,
		markers:        []string{"DCEMarker0"},
		gccEliminates:  false,
		llvmEliminates: true,
	},
	{
		name:  "Listing 7 / 8a (LLVM PR49773): unswitching blocks propagation at -O3",
		paper: "LLVM eliminated the dead call at -O2 but the new loop unswitching (freeze) blocks it at -O3",
		source: `
void DCEMarker0(void);
static int b = 0;
static int g;
int main(void) {
  int bb = b;
  for (int i = 0; i < 4; i++) {
    if (bb) {
      DCEMarker0();
    }
    g += i;
  }
  b = 0;
  return 0;
}`,
		markers: []string{"DCEMarker0"},
		// The paper reports only LLVM's behaviour for this listing; in this
		// reproduction gcc-sim also misses it (its flow-insensitive global
		// analysis is defeated by the b = 0 store, as in Listing 4a).
		gccEliminates:   false,
		llvmEliminates:  false,
		levelRegression: &levelCheck{personality: "llvm", lower: dcelens.O2},
	},
	{
		name:  "Listing 9b shape (GCC PR100034): leftover interprocedural SRA copy",
		paper: "GCC -O3 optimizes main but fails to eliminate an unused interprocedural SRA copy of the callee; its dead call stays in the binary (-O1 does not have this issue)",
		source: `
void DCEMarker0(void);
static int g;
static int h;
static void touch(int *p) {
  DCEMarker0();
  *p = 1;
}
int main(void) {
  h = 5;
  if (h != 5) {
    touch(&g);
  }
  return 0;
}`,
		markers:         []string{"DCEMarker0"},
		gccEliminates:   false,
		llvmEliminates:  true,
		levelRegression: &levelCheck{personality: "gcc", lower: dcelens.O1},
	},
}

func main() {
	failures := 0
	for _, l := range listings {
		fmt.Printf("== %s\n   paper: %s\n", l.name, l.paper)
		prog, err := dcelens.Parse(l.source)
		check(err)
		ins := wrap(prog)
		truth, err := dcelens.GroundTruth(ins)
		check(err)

		gcc, err := dcelens.Compile(ins, dcelens.GCC(dcelens.O3), dcelens.Instr{})
		check(err)
		llvm, err := dcelens.Compile(ins, dcelens.LLVM(dcelens.O3), dcelens.Instr{})
		check(err)

		for _, m := range l.markers {
			if truth.Alive[m] {
				fmt.Printf("   UNEXPECTED: %s is alive in ground truth\n", m)
				failures++
				continue
			}
			ok1 := report("gcc-sim ", !gcc.Alive[m], l.gccEliminates)
			ok2 := report("llvm-sim", !llvm.Alive[m], l.llvmEliminates)
			if !ok1 || !ok2 {
				failures++
			}
			if lr := l.levelRegression; lr != nil {
				cfg := dcelens.GCC(lr.lower)
				name := "gcc-sim"
				if lr.personality == "llvm" {
					cfg = dcelens.LLVM(lr.lower)
					name = "llvm-sim"
				}
				low, err := dcelens.Compile(ins, cfg, dcelens.Instr{})
				check(err)
				if low.Alive[m] {
					fmt.Printf("   UNEXPECTED: %s misses the marker at %v too (no level regression)\n", name, lr.lower)
					failures++
				} else {
					fmt.Printf("   %s %v eliminates it: the -O3 miss is a level regression, as in the paper\n", name, lr.lower)
				}
			}
		}
		fmt.Println()
	}
	if failures > 0 {
		fmt.Printf("%d listings diverged from the paper's observations\n", failures)
		os.Exit(1)
	}
	fmt.Println("all listings reproduce the paper's qualitative findings")
}

// report prints one personality's behaviour and whether it matches.
func report(name string, eliminated, want bool) bool {
	verdict := "MISSES the dead marker"
	if eliminated {
		verdict = "eliminates the dead marker"
	}
	match := "as in the paper"
	if eliminated != want {
		match = "UNEXPECTED (paper observed the opposite)"
	}
	fmt.Printf("   %s %s — %s\n", name, verdict, match)
	return eliminated == want
}

// wrap adopts the explicit DCEMarker declarations of a hand-written
// listing as its marker table.
func wrap(p *dcelens.Program) *dcelens.Instrumented {
	ins := &dcelens.Instrumented{Prog: p}
	for _, f := range p.Funcs() {
		if f.Body == nil && dcelens.IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, dcelens.Marker{ID: len(ins.Markers), Name: f.Name})
		}
	}
	return ins
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

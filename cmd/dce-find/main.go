// dce-find runs the end-to-end missed-optimization search on one program:
// instrument, compute ground truth, compile with both personalities at the
// requested levels, and report per-compiler missed markers plus the
// differential results (paper Figure 1).
//
// Usage:
//
//	dce-find -seed 42            # generated program
//	dce-find -file prog.c        # hand-written MiniC (markers optional)
//	dce-find -seed 42 -asm       # also dump the -O3 assembly
package main

import (
	"flag"
	"fmt"
	"os"

	"dcelens"
	"dcelens/internal/cli"
)

func main() {
	seed := flag.Int64("seed", 42, "generator seed (ignored with -file)")
	file := flag.String("file", "", "MiniC source file to analyze instead of generating")
	showAsm := flag.Bool("asm", false, "dump -O3 assembly of both compilers")
	prof := cli.Profiling()
	flag.Parse()
	defer prof.Start("dce-find")()

	var prog *dcelens.Program
	var err error
	if *file != "" {
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			fail(rerr)
		}
		prog, err = dcelens.Parse(string(data))
	} else {
		prog = dcelens.Generate(*seed)
	}
	if err != nil {
		fail(err)
	}

	// A file that already declares markers (e.g. produced by
	// `dce-gen -instrument` or a reduced case) is adopted as-is;
	// otherwise instrument it now.
	ins := adoptExisting(prog)
	if len(ins.Markers) == 0 {
		var err error
		ins, err = dcelens.Instrument(prog)
		if err != nil {
			fail(err)
		}
	}
	truth, err := dcelens.GroundTruth(ins)
	if err != nil {
		fail(err)
	}
	graph, err := dcelens.BuildMarkerCFG(ins)
	if err != nil {
		fail(err)
	}
	fmt.Printf("markers: %d total, %d dead, %d alive\n",
		len(ins.Markers), len(truth.Dead), len(truth.Alive))

	type result struct {
		name string
		c    *dcelens.Compilation
	}
	var results []result
	for _, lvl := range []dcelens.Level{dcelens.O1, dcelens.O3} {
		for _, mk := range []struct {
			name string
			c    *dcelens.Compiler
		}{{"gcc-sim", dcelens.GCC(lvl)}, {"llvm-sim", dcelens.LLVM(lvl)}} {
			comp, err := dcelens.Compile(ins, mk.c, dcelens.Instr{})
			if err != nil {
				fail(err)
			}
			missed := comp.Missed(truth)
			primary := graph.Primary(truth, missed)
			fmt.Printf("%-9s %s: %3d missed (%d primary)\n", mk.name, lvl, len(missed), len(primary))
			if lvl == dcelens.O3 {
				results = append(results, result{mk.name, comp})
			}
		}
	}

	a, b := results[0], results[1]
	for _, d := range []struct {
		t, r result
	}{{a, b}, {b, a}} {
		missed := dcelens.DiffMissed(d.t.c, d.r.c, truth)
		primary := graph.Primary(truth, missed)
		fmt.Printf("feasible missed in %s at -O3 (other compiler succeeds): %d", d.t.name, len(missed))
		if len(primary) > 0 {
			fmt.Printf("  primary: %v", primary)
		}
		fmt.Println()
	}

	if *showAsm {
		for _, r := range results {
			fmt.Printf("\n===== %s -O3 assembly =====\n%s", r.name, r.c.Asm)
		}
	}
}

// adoptExisting collects marker declarations already present in a program.
func adoptExisting(p *dcelens.Program) *dcelens.Instrumented {
	ins := &dcelens.Instrumented{Prog: p}
	for _, f := range p.Funcs() {
		if f.Body == nil && dcelens.IsMarker(f.Name) {
			ins.Markers = append(ins.Markers, dcelens.Marker{ID: len(ins.Markers), Name: f.Name})
		}
	}
	return ins
}

func fail(err error) { cli.Fail("dce-find", err) }

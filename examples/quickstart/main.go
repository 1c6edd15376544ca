// Quickstart: the paper's pipeline end to end on one random program.
//
//	go run ./examples/quickstart [seed]
//
// Generates a random MiniC program, instruments every basic block with a
// DCE marker, executes it to learn which markers are actually dead, then
// compiles it with both simulated compilers at -O3 and reports which dead
// markers each failed to eliminate — and which of those are *feasible*
// missed optimizations because the other compiler managed.
package main

import (
	"fmt"
	"os"
	"strconv"

	"dcelens"
)

func main() {
	seed := int64(2022)
	if len(os.Args) > 1 {
		if v, err := strconv.ParseInt(os.Args[1], 10, 64); err == nil {
			seed = v
		}
	}

	// ① Generate and instrument.
	prog := dcelens.Generate(seed)
	ins, err := dcelens.Instrument(prog)
	check(err)
	fmt.Printf("seed %d: %d markers inserted\n", seed, len(ins.Markers))

	// ② Ground truth by execution: the program is deterministic and
	// closed, so one run decides every marker.
	truth, err := dcelens.GroundTruth(ins)
	check(err)
	fmt.Printf("ground truth: %d dead, %d alive (%.1f%% dead)\n",
		len(truth.Dead), len(truth.Alive),
		100*float64(len(truth.Dead))/float64(len(ins.Markers)))

	// ③ Compile with both personalities at -O3.
	gcc, err := dcelens.Compile(ins, dcelens.GCC(dcelens.O3), dcelens.Instr{})
	check(err)
	llvm, err := dcelens.Compile(ins, dcelens.LLVM(dcelens.O3), dcelens.Instr{})
	check(err)

	gccMissed := gcc.Missed(truth)
	llvmMissed := llvm.Missed(truth)
	fmt.Printf("gcc-sim  -O3: %d dead markers missed\n", len(gccMissed))
	fmt.Printf("llvm-sim -O3: %d dead markers missed\n", len(llvmMissed))

	// ④ Differential testing: a miss is *feasible* when the other
	// compiler eliminates the same marker.
	graph, err := dcelens.BuildMarkerCFG(ins)
	check(err)
	for _, d := range []struct {
		name   string
		missed []string
	}{
		{"gcc-sim (llvm-sim succeeds)", dcelens.DiffMissed(gcc, llvm, truth)},
		{"llvm-sim (gcc-sim succeeds)", dcelens.DiffMissed(llvm, gcc, truth)},
	} {
		primary := graph.Primary(truth, d.missed)
		fmt.Printf("feasible missed optimizations in %s: %d (%d primary)\n",
			d.name, len(d.missed), len(primary))
		for _, m := range primary {
			fmt.Printf("  primary: %s\n", m)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

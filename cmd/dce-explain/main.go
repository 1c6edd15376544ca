// dce-explain turns findings into missed-optimization narratives: for each
// marker a compiler failed to eliminate, it prints the nearest-miss chain —
// the ordered pass decisions ("gvn: alias-unknown on load p", "licm:
// loop-carried on x") recorded while the marker's code stayed alive. It is
// the human-facing end of the internal/remark engine: dce-attrib says which
// pass *did* eliminate a marker elsewhere; dce-explain says why the passes
// here *did not*.
//
// Usage:
//
//	dce-explain -n 20                        # campaign: remark tables +
//	                                         # per-finding narratives
//	dce-explain -n 50 -findings 5            # cap the narratives printed
//	dce-explain -seed 42 -compiler gcc       # one program: pass remark
//	                                         # counts, miss reasons, chains
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dcelens"
	"dcelens/internal/cli"
)

const tool = "dce-explain"

func main() {
	n := flag.Int("n", 20, "campaign corpus size")
	seed := flag.Int64("seed", 1, "base seed (campaign) or program seed (-single)")
	findings := flag.Int("findings", 12, "max finding narratives to print in campaign mode")
	single := flag.Bool("single", false, "explain one generated program instead of running a campaign")
	compiler := flag.String("compiler", "llvm", "gcc or llvm (single-program mode)")
	level := flag.String("level", "O3", "optimization level (single-program mode)")
	prof := cli.Profiling()
	flag.Parse()
	defer prof.Start(tool)()

	if *single {
		singleProgram(*seed, *compiler, *level)
		return
	}
	campaign(*n, *seed, *findings)
}

// campaign runs a remark-collecting campaign and prints the aggregate
// remark tables followed by per-finding narratives.
func campaign(n int, seed int64, maxFindings int) {
	fmt.Fprintf(os.Stderr, "%s: running a %d-program campaign with remarks...\n", tool, n)
	c, err := dcelens.RunCampaign(dcelens.CampaignOptions{Programs: n, BaseSeed: seed, Remarks: true})
	if err != nil {
		cli.Fail(tool, err)
	}
	if len(c.Stats.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "campaign errors: %v\n", c.Stats.Errors)
	}
	if r := dcelens.ReportRemarks(c.Stats); r != "" {
		fmt.Print(r)
	}
	if len(c.Findings) == 0 {
		fmt.Println("\nno findings to explain")
		return
	}
	fs := c.Findings
	if maxFindings > 0 && len(fs) > maxFindings {
		fs = fs[:maxFindings]
	}
	fmt.Printf("\nFinding narratives (%d findings, explaining %d):\n\n", len(c.Findings), len(fs))
	fmt.Println(dcelens.ExplainFindings(fs))
}

// singleProgram compiles one generated program with the remark collector
// attached and prints its pass counts, miss reasons, and per-marker chains.
func singleProgram(seed int64, compiler, level string) {
	ins, err := dcelens.Instrument(dcelens.Generate(seed))
	if err != nil {
		cli.Fail(tool, err)
	}
	truth, err := dcelens.GroundTruth(ins)
	if err != nil {
		cli.Fail(tool, err)
	}
	cfg := cli.Compiler(tool, compiler, cli.Level(tool, level))
	comp, err := dcelens.Compile(ins, cfg, dcelens.Instr{Remarks: true})
	if err != nil {
		cli.Fail(tool, err)
	}
	prof := comp.Remarks
	missed := comp.Missed(truth)
	fmt.Printf("%s on seed %d: %d markers, %d dead, %d missed, %d remarks\n",
		cfg.Name(), seed, len(ins.Markers), len(truth.Dead), len(missed), prof.Total)

	if len(prof.Passes) > 0 {
		fmt.Printf("\n%-14s %8s %8s %8s\n", "pass", "applied", "missed", "analysis")
		for _, pc := range prof.Passes {
			fmt.Printf("%-14s %8d %8d %8d\n", pc.Pass, pc.Applied, pc.Missed, pc.Analysis)
		}
	}
	if rows := dcelens.TopMissReasons(prof.Reasons, 0); len(rows) > 0 {
		fmt.Println("\nmiss reasons:")
		for _, r := range rows {
			fmt.Printf("  %-16s %d\n", r.Reason, r.Count)
		}
	}
	markers := make([]string, 0, len(prof.Chains))
	for m := range prof.Chains {
		markers = append(markers, m)
	}
	sort.Strings(markers)
	for _, m := range markers {
		fmt.Printf("\n%s stayed alive because:\n", m)
		for i, st := range prof.Chains[m] {
			line := fmt.Sprintf("  %d. %s: %s on %s", i+1, st.Pass, st.Reason, st.Subject)
			fmt.Println(line)
			if st.Detail != "" {
				fmt.Printf("     %s\n", st.Detail)
			}
		}
	}
}
